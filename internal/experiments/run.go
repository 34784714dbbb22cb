package experiments

// registry lists every experiment once, in paper (render) order. quick
// trims grids and training steps (used by tests and the default CLI mode;
// pass -full to cmd/experiments for the complete sweep).
var registry = []struct {
	id  string
	run func(quick bool) Report
}{
	{"fig2", func(bool) Report { return Fig2() }},
	{"fig3", func(bool) Report { return Fig3() }},
	{"fig4", Fig4},
	{"fig5", Fig5},
	{"fig6", Fig6},
	{"fig7", func(bool) Report { return Fig7() }},
	{"fig8", Fig8},
	{"fig9", Fig9},
	{"fig10", Fig10},
	{"fig11", func(bool) Report { return Fig11() }},
	{"fig12", Fig12},
	{"fig13", Fig13},
	{"fig14", Fig14},
	{"fig15", func(bool) Report { return Fig15() }},
	{"tableV", TableV},
	{"tableVI", func(bool) Report { return TableVI() }},
	{"tableVIII", TableVIII},
	{"tableVII", func(bool) Report { return TableVII() }},
	{"llm-memory", func(bool) Report { return LLMMemory() }},
	{"ext-encoding", ExtEncodingAblation},
	{"ext-scanorder", ExtScanOrderAblation},
	{"ext-quant", ExtQuantization},
}

// All runs every experiment in paper order.
func All(quick bool) []Report {
	out := make([]Report, len(registry))
	for i, e := range registry {
		out[i] = e.run(quick)
	}
	return out
}

// ByID returns the experiment runner for a given report ID, or nil.
func ByID(id string) func(quick bool) Report {
	for _, e := range registry {
		if e.id == id {
			return e.run
		}
	}
	return nil
}

// IDs lists the experiment identifiers in paper order.
func IDs() []string {
	out := make([]string, len(registry))
	for i, e := range registry {
		out[i] = e.id
	}
	return out
}
