package main

import "strings"

// endToEnd names the metrics every untraced run prints, on every workload;
// README.md says what each one counts on each workload.
var endToEnd = []string{
	"setup_s",
	"cpu_s",
	"peak_rss_mb",
	"latency_p50_ms",
}

var e2eUnits = map[string]string{
	"setup_s":        "s",
	"cpu_s":          "s",
	"peak_rss_mb":    "MB",
	"latency_p50_ms": "ms",
}

// The traces paper-eval reduces, as "<os>-<name>" (the relations trace is
// the second, shorter linux webserver run).
var (
	osTraces = []string{
		"linux-idle", "linux-skype", "linux-firefox", "linux-webserver",
		"vista-idle", "vista-skype", "vista-firefox", "vista-webserver",
	}
	desktopTrace   = "vista-desktop"
	relationsTrace = "linux-webserver-relations"
)

// perLayerFixed lists the traced run's metrics other than the per-trace
// ones, with units.
var perLayerFixed = [][2]string{
	// workloads + sim (paper-eval)
	{"sim.events", "count"},
	{"sim.ns_per_event", "ns"},
	{"workloads.alloc_bytes_per_record", "B"},
	// analysis (paper-eval)
	{"analysis.rates_ms", "ms"},
	{"analysis.relations_ms", "ms"},
	{"analysis.ns_per_record", "ns"},
	{"analysis.timers", "count"},
	{"eval.straggler_ms", "ms"},
	// fleet (fleet-64, fleet-1024)
	{"fleet.build_ms", "ms"},
	{"fleet.events_per_s", "1/s"},
	{"fleet.serial_events_per_s", "1/s"},
	{"fleet.step_us.p50", "us"},
	{"fleet.step_us.p99", "us"},
	{"fleet.serial_step_us.p50", "us"},
	{"fleet.serial_step_us.p99", "us"},
	{"fleet.windows", "count"},
	{"fleet.events_per_window", "count"},
	{"fleet.messages_sent", "count"},
	{"fleet.messages_lost", "count"},
	{"fleet.alloc_bytes_per_event", "B"},
	{"fleet.gc_cycles", "count"},
	// control (fleet-1024)
	{"control.advance_us.p50", "us"},
	{"control.commands_applied", "count"},
	{"control.checkpoint_ms", "ms"},
	{"control.checkpoint_bytes", "B"},
	{"control.read_checkpoint_ms", "ms"},
	{"control.resume_ms", "ms"},
	// trace, analysis, serve, load generator (serve-live)
	{"trace.encode_ns_per_record", "ns"},
	{"trace.decode_ns_per_record", "ns"},
	{"analysis.add_chunk_ns_per_record", "ns"},
	{"analysis.merge_ms", "ms"},
	{"serve.ingest_p50_ms", "ms"},
	{"serve.ingest_p99_ms", "ms"},
	{"serve.ingest_samples", "count"},
	{"serve.query_p50_ms", "ms"},
	{"serve.query_p99_ms", "ms"},
	{"serve.query_samples", "count"},
	{"serve.merges", "count"},
	{"serve.merge_ms.mean", "ms"},
	{"serve.posts", "count"},
	{"serve.rejected", "count"},
	{"serve.heap_mb", "MB"},
	{"loadgen.lag_ms.p99", "ms"},
	// every workload
	{"throughput_per_s", "1/s"},
	{"latency_tail_ms", "ms"},
	{"trace.overhead_pct", "%"},
}

// perLayer returns every per-layer metric name in a fixed order.
func perLayer() []string {
	var out []string
	for _, t := range append(append([]string{}, osTraces...), desktopTrace, relationsTrace) {
		out = append(out, "workloads.run_ms."+t)
	}
	for _, t := range osTraces {
		out = append(out, "analysis.run_ms."+t)
	}
	for _, m := range perLayerFixed {
		out = append(out, m[0])
	}
	return out
}

func perLayerUnit(name string) string {
	if strings.HasPrefix(name, "workloads.run_ms.") || strings.HasPrefix(name, "analysis.run_ms.") {
		return "ms"
	}
	for _, m := range perLayerFixed {
		if m[0] == name {
			return m[1]
		}
	}
	return "count"
}
