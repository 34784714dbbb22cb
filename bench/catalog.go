package main

import (
	"fmt"
	"slices"
)

// metricDef names one metric of the benchmark's contract. BENCHMARK.json
// lists exactly these (a test compares them), and a pipeline run fails
// rather than print a report that misses one.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only: the share by which the metric may worsen
}

// endToEnd is what a user of secembd sees, per workload. The bounds are as
// wide as the pipeline allows because the level the build machine's host
// holds for a whole run wanders by more than 10 % between runs, and with it
// the open loop's backlog and so its memory (see README.md, "Steadiness").
var endToEnd = []metricDef{
	{"req_p50_ms", "ms", "lower", 0.25},
	{"req_p95_ms", "ms", "lower", 0.25},
	{"ids_per_s", "ids/s", "higher", 0.25},
	{"cpu_us_per_req", "us", "lower", 0.25},
	{"rss_peak_mb", "MiB", "lower", 0.25},
	{"ok_share", "ratio", "higher", 0.001},
	{"setup_s", "s", "lower", 0.25},
}

func defs(unit, better string, names ...string) []metricDef {
	out := make([]metricDef, len(names))
	for i, n := range names {
		out[i] = metricDef{Name: n, Unit: unit, Better: better}
	}
	return out
}

// perLayer is every single-layer metric: what an untraced run shows from
// outside (client, loadgen, serving.queue_wait, wire bytes), the probes,
// and the traced run (trace.*).
var perLayer = slices.Concat(
	defs("ms", "lower", "client.req_p99_ms", "client.req_p999_ms"),
	defs("us", "lower",
		"loadgen.send_lag_p95_us", "serving.queue_wait_p50_us", "serving.queue_wait_p95_us",
		"wire.noop_rtt_us", "wire.noop_queue_wait_us",
		"serving.do_noop_us", "serving.do_noop_greedy_us", "serving.do_noop_c16_us",
		"backends.embedding_execute_16x2_us",
		"core.circuit_n4096_b2_us", "core.circuit_n65536_b32_us", "core.path_n4096_b2_us",
		"core.scan_n4096_b8_us", "core.scanb_n4096_b8_us", "core.dhe_int8_n1m_b64_us", "core.dhe_f32_n1m_b64_us",
		"core.dual_n4096_b2_us", "core.dual_n4096_b64_us",
		"oram.circuit_read_n4096_us", "oram.circuit_read_n65536_us", "oram.path_read_n4096_us",
		"dhe.generate_int8_b64_us", "dhe.generate_f32_b64_us", "dhe.encode_b64_us", "hashenc.encode_k1024_b64_us",
		"tensor.matmul_quant_256_us", "tensor.matmul_f32_256_us", "oblivious.lookup_scan_n4096_d64_us",
		"planner.replan_8shards_us",
		"trace.wire_self_p50_us", "trace.queue_p50_us", "trace.backends_self_p50_us", "trace.generate_p50_us"),
	defs("ns", "lower",
		"wire.append_request_b64_ns", "wire.parse_request_b64_ns", "wire.append_response_b64_ns",
		"wire.parse_response_b64_ns", "wire.token_verify_ns", "planner.swappable_overhead_ns"),
	defs("count", "lower",
		"wire.noop_allocs", "serving.do_noop_allocs", "backends.embedding_execute_16x2_allocs",
		"core.circuit_n65536_b32_allocs", "core.scanb_n4096_b8_allocs",
		"oram.circuit_read_allocs", "oram.path_read_allocs", "oram.circuit_stash_max"),
	defs("B", "lower", "wire.req_bytes_per_req", "wire.resp_bytes_per_req"),
	defs("ratio", "lower", "serving.served_vs_client_ok", "trace.unattributed_share", "trace.p50_ratio"),
	defs("count", "higher", "client.samples", "trace.reqs_per_batch_mean", "trace.ids_per_generate_mean"),
	defs("ratio", "higher", "trace.generate_share", "trace.linked_share"),
)

// checkReport verifies that a report holds exactly the catalogue's metrics
// with the catalogue's units.
func checkReport(report []metric, catalogue []metricDef) error {
	got := map[string]string{}
	for _, m := range report {
		got[m.Name] = m.Unit
	}
	for _, d := range catalogue {
		unit, ok := got[d.Name]
		if !ok {
			return fmt.Errorf("report misses %s", d.Name)
		}
		if unit != d.Unit {
			return fmt.Errorf("%s reported in %s, catalogue says %s", d.Name, unit, d.Unit)
		}
		delete(got, d.Name)
	}
	for name := range got {
		return fmt.Errorf("report has %s, which the catalogue does not list", name)
	}
	return nil
}
