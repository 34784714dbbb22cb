package experiments

import (
	"strconv"
	"strings"
	"testing"
)

func TestAllReportsRenderQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("full suite is slow")
	}
	ids := IDs()
	for i, r := range All(true) {
		if r.ID != ids[i] {
			t.Fatalf("registry entry %q rendered report %q", ids[i], r.ID)
		}
		if len(r.Rows) == 0 {
			t.Fatalf("%s: empty report", r.ID)
		}
		out := r.Render()
		if !strings.Contains(out, r.ID) || !strings.Contains(out, r.Title) {
			t.Fatalf("%s: render missing header", r.ID)
		}
		for _, row := range r.Rows {
			if len(row) != len(r.Headers) {
				t.Fatalf("%s: row width %d != headers %d", r.ID, len(row), len(r.Headers))
			}
		}
	}
}

// TestByIDCoversIDs: every listed id resolves by construction (All, ByID
// and IDs read one registry), so what is left to check is the miss.
func TestByIDCoversIDs(t *testing.T) {
	if ByID("nope") != nil {
		t.Fatal("unknown id must return nil")
	}
}

// cell parses a numeric report cell (first token).
func cell(s string) float64 {
	f := strings.Fields(s)
	v, err := strconv.ParseFloat(f[0], 64)
	if err != nil {
		panic("non-numeric cell: " + s)
	}
	return v
}

func TestFig3RecoversVictimIndex(t *testing.T) {
	r := Fig3()
	// The victim set (index 2) must carry the highest lookup latency,
	// and the scan column must be flat.
	bestIdx, best := -1, -1.0
	scan0 := cell(r.Rows[0][2])
	for i, row := range r.Rows {
		if v := cell(row[1]); v > best {
			best, bestIdx = v, i
		}
		if cell(row[2]) != scan0 {
			t.Fatalf("linear scan latency not flat at set %d", i)
		}
	}
	if bestIdx != 2 {
		t.Fatalf("attack recovered set %d, want 2", bestIdx)
	}
}

func TestFig4Shapes(t *testing.T) {
	r := Fig4(true)
	// Within each dim, the scan column grows with table size while the
	// DHE-Uniform column stays constant.
	byDim := map[string][][]string{}
	for _, row := range r.Rows {
		byDim[row[0]] = append(byDim[row[0]], row)
	}
	for dim, rows := range byDim {
		for i := 1; i < len(rows); i++ {
			if cell(rows[i][2]) <= cell(rows[i-1][2]) {
				t.Fatalf("dim %s: scan latency not increasing", dim)
			}
			if cell(rows[i][5]) != cell(rows[0][5]) {
				t.Fatalf("dim %s: DHE uniform latency not flat", dim)
			}
		}
		last := rows[len(rows)-1]
		// Largest table: DHE-Varied < Circuit < Path < Scan.
		if !(cell(last[6]) < cell(last[4]) && cell(last[4]) < cell(last[3]) && cell(last[3]) < cell(last[2])) {
			t.Fatalf("dim %s: large-table ordering violated: %v", dim, last)
		}
	}
}

func TestFig5PrefillWinner(t *testing.T) {
	r := Fig5(true)
	for _, row := range r.Rows {
		if row[1] == "256" && row[6] != "DHE" {
			t.Fatalf("dim %s batch 256: best secure = %s, want DHE", row[0], row[6])
		}
	}
}

func TestFig10Ordering(t *testing.T) {
	r := Fig10(true)
	for _, row := range r.Rows {
		orig, gram, opt := cell(row[2]), cell(row[3]), cell(row[4])
		if !(orig > gram && gram > opt) {
			t.Fatalf("%s n=%s: ZT ordering violated: %v > %v > %v", row[0], row[1], orig, gram, opt)
		}
	}
}

func TestTableVIIOrderings(t *testing.T) {
	r := TableVII()
	lat := map[string][2]float64{}
	for _, row := range r.Rows {
		lat[row[0]] = [2]float64{cell(row[1]), cell(row[3])}
	}
	for ds := 0; ds < 2; ds++ {
		look := lat["Index Lookup (non-secure)"][ds]
		scan := lat["Linear Scan"][ds]
		path := lat["Path ORAM"][ds]
		circ := lat["Circuit ORAM"][ds]
		hybV := lat["Hybrid Varied"][ds]
		dheV := lat["DHE Varied"][ds]
		if !(look < hybV && hybV <= dheV && hybV < circ && circ < path && path < scan) {
			t.Fatalf("dataset %d: Table VII ordering violated: look=%v hybV=%v dheV=%v circ=%v path=%v scan=%v",
				ds, look, hybV, dheV, circ, path, scan)
		}
		// Hybrid speedup over Circuit in a plausible band around the
		// paper's 2.0–2.3× (we accept 1.5–8×).
		if s := circ / hybV; s < 1.5 || s > 8 {
			t.Fatalf("dataset %d: hybrid speedup %.2f outside band", ds, s)
		}
	}
}

func TestFig12SpeedupGrowsWithBatch(t *testing.T) {
	r := Fig12(true)
	// For each dataset, hybrid-vs-circuit ratio at batch 128 must exceed
	// the batch-32 ratio (Figure 12's message).
	ratios := map[string]map[string]float64{}
	for _, row := range r.Rows {
		ds, b := row[0], row[1]
		if ratios[ds] == nil {
			ratios[ds] = map[string]float64{}
		}
		ratios[ds][b] = cell(row[2]) / cell(row[4])
	}
	for ds, m := range ratios {
		if m["128"] <= m["32"] {
			t.Fatalf("%s: speedup did not grow with batch (%.2f → %.2f)", ds, m["32"], m["128"])
		}
	}
}

func TestTableVIFootprints(t *testing.T) {
	r := TableVI()
	get := func(name string, col int) float64 {
		for _, row := range r.Rows {
			if row[0] == name {
				return cell(row[col])
			}
		}
		t.Fatalf("missing row %s", name)
		return 0
	}
	for _, col := range []int{1, 3} { // Kaggle, Terabyte MB
		table := get("Table", col)
		oram := get("Tree-ORAM", col)
		hybV := get("Hybrid Varied", col)
		if !(oram > 3*table) {
			t.Fatalf("ORAM %.0f not >3x table %.0f", oram, table)
		}
		if !(hybV < table/50) {
			t.Fatalf("hybrid %.1f not orders below table %.0f", hybV, table)
		}
	}
}

func TestFig15DHEvsCircuit(t *testing.T) {
	r := Fig15()
	var dheRow, circRow []string
	for _, row := range r.Rows {
		switch row[0] {
		case "DHE":
			dheRow = row
		case "Circuit ORAM":
			circRow = row
		}
	}
	// Prefill columns (1, 3, 5): DHE must beat Circuit ORAM.
	for _, c := range []int{1, 3, 5} {
		if cell(dheRow[c]) >= cell(circRow[c]) {
			t.Fatalf("prefill col %d: DHE %v not below Circuit %v", c, dheRow[c], circRow[c])
		}
	}
	// Decode at batch 12 (col 6): DHE wins; batch 1 (col 2): within 2x.
	if cell(dheRow[6]) >= cell(circRow[6]) {
		t.Fatal("decode b=12: DHE must win")
	}
	if ratio := cell(dheRow[2]) / cell(circRow[2]); ratio > 2 {
		t.Fatalf("decode b=1: DHE/Circuit %.2f too far apart", ratio)
	}
}

func TestModelThresholdsSane(t *testing.T) {
	u := ModelThreshold(64, 32, 1)
	if u < 1000 || u > 10000 {
		t.Fatalf("uniform threshold %d outside plausible decade", u)
	}
	v := ModelThresholdVaried(16, 32, 1)
	if v <= 0 || v >= u {
		t.Fatalf("varied threshold %d must undercut uniform %d", v, u)
	}
}

func TestFig7CoverageShares(t *testing.T) {
	r := Fig7()
	for _, row := range r.Rows {
		// Almost all table *memory* must be always-DHE (paper: 99.7%).
		share := strings.TrimSuffix(row[4], "%")
		v, err := strconv.ParseFloat(share, 64)
		if err != nil || v < 99 {
			t.Fatalf("%s: DHE memory share %q too low", row[0], row[4])
		}
		// Every dataset keeps some always-scan tables and some in the band.
		if cell(row[1]) < 5 || cell(row[3]) < 5 {
			t.Fatalf("%s: implausible classification %v", row[0], row)
		}
	}
}

func TestFig9CrossoverDirection(t *testing.T) {
	r := Fig9(false)
	// First row (smallest tables): dhe=0 best; last row (largest): dhe=24.
	first, last := r.Rows[0], r.Rows[len(r.Rows)-1]
	if !(cell(first[1]) < cell(first[len(first)-1])) {
		t.Fatalf("small tables: all-scan should beat all-DHE: %v", first)
	}
	if !(cell(last[len(last)-1]) < cell(last[1])) {
		t.Fatalf("large tables: all-DHE should beat all-scan: %v", last)
	}
}

func TestFig8InflationDirection(t *testing.T) {
	r := Fig8(true)
	lastRow := r.Rows[len(r.Rows)-1]
	scanInfl := strings.TrimSuffix(lastRow[2], "x")
	dheInfl := strings.TrimSuffix(lastRow[4], "x")
	s, _ := strconv.ParseFloat(scanInfl, 64)
	d, _ := strconv.ParseFloat(dheInfl, 64)
	if !(s > d && s > 1.2) {
		t.Fatalf("24-way inflation: scan %v must exceed DHE %v", s, d)
	}
}

func TestFig14CurvesDescend(t *testing.T) {
	r := Fig14(true)
	first, last := r.Rows[0], r.Rows[len(r.Rows)-1]
	for _, col := range []int{1, 2} {
		if !(cell(last[col]) < cell(first[col])*0.8) {
			t.Fatalf("perplexity column %d barely fell: %v → %v", col, first[col], last[col])
		}
	}
	// Final table and DHE perplexities within 35% of each other
	// (paper: 2.7% on GPT-2 medium; miniatures are noisier).
	tf, df := cell(last[1]), cell(last[2])
	if ratio := df / tf; ratio > 1.35 || ratio < 0.65 {
		t.Fatalf("final perplexity gap too wide: table %v vs DHE %v", tf, df)
	}
}

func TestTableVIIIOrdering(t *testing.T) {
	r := TableVIII(true)
	lat := map[string]float64{}
	memMB := map[string]float64{}
	for _, row := range r.Rows {
		lat[row[0]] = cell(row[1])
		memMB[row[0]] = cell(row[3])
	}
	if !(lat["Hybrid Varied"] <= lat["DHE Varied"] && lat["DHE Varied"] < lat["Circuit ORAM"] &&
		lat["Circuit ORAM"] < lat["Path ORAM"] && lat["Path ORAM"] < lat["Linear Scan"]) {
		t.Fatalf("Table VIII latency ordering violated: %v", lat)
	}
	if !(memMB["Hybrid Varied"] < memMB["Index Lookup (non-secure)"]/100) {
		t.Fatal("hybrid memory not orders of magnitude below the table")
	}
	if !(memMB["Circuit ORAM"] > 3*memMB["Index Lookup (non-secure)"]) {
		t.Fatal("ORAM memory should exceed 3x the table")
	}
}

func TestTableVParity(t *testing.T) {
	if testing.Short() {
		t.Skip("training")
	}
	r := TableV(true)
	var accs []float64
	for _, row := range r.Rows {
		accs = append(accs, cell(strings.TrimSuffix(row[1], "%")))
	}
	for _, a := range accs {
		if a < 55 {
			t.Fatalf("accuracy %v barely above chance", a)
		}
	}
	spread := 0.0
	for _, a := range accs {
		if d := a - accs[0]; d > spread {
			spread = d
		} else if -d > spread {
			spread = -d
		}
	}
	if spread > 6 {
		t.Fatalf("accuracy spread %.1f points too wide for the parity claim", spread)
	}
}

func TestExtReports(t *testing.T) {
	enc := ExtEncodingAblation(true)
	if len(enc.Rows) != 2 {
		t.Fatal("encoding ablation rows")
	}
	for _, row := range enc.Rows {
		if cell(row[1]) > 1.0 {
			t.Fatalf("encoding %s failed to fit: residual %s", row[0], row[1])
		}
	}
	q := ExtQuantization(true)
	for _, row := range q.Rows {
		comp := strings.TrimSuffix(row[3], "x")
		// Packed SWAR lanes spend 2 bytes/weight (DESIGN.md §13): the
		// floor is ~2x, not flat int8's ~4x — the other half bought the
		// kernel speedup.
		if v, _ := strconv.ParseFloat(comp, 64); v < 1.8 {
			t.Fatalf("quantization compression %s too low", row[3])
		}
		if cell(row[4]) > 0.1 {
			t.Fatalf("quantization drift %s too high", row[4])
		}
	}
	so := ExtScanOrderAblation(true)
	if len(so.Rows) == 0 {
		t.Fatal("scan-order ablation empty")
	}
}
