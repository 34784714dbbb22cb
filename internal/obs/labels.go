package obs

// Canonical label keys for the metric dimensions shared across layers.
// Instrumentation in core, serving and planner agrees on these names so a
// dashboard can join families across layers.
const (
	// LabelTech labels a metric with the embedding technique key
	// (core.Technique.Key(): "scanb", "circuit", "dhe", …).
	LabelTech = "tech"
	// LabelShard labels a metric with the bare index of the serving shard
	// the sample came from.
	LabelShard = "shard"
	// LabelTable labels a metric with the managed table name.
	LabelTable = "table"
)
