package main

// metricDef is one metric of BENCHMARK.json. Bound applies to end-to-end
// metrics only: the share of the parent's median by which the metric may
// worsen.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics an untraced run prints, on every workload.
var endToEnd = []metricDef{
	{"images_per_s", "1/s", "higher", 0.25},
	{"layer_latency_p50_ms", "ms", "lower", 0.25},
	{"cpu_ms_per_image", "ms", "lower", 0.25},
	{"alloc_mb_per_image", "MB", "lower", 0.2},
	{"peak_rss_mb", "MB", "lower", 0.15},
	{"setup_s", "s", "lower", 0.25},
}

// tableStages maps the Table-1 stages of Algorithm 1 to the operator names
// bench.BuildPipeline gives them.
var tableStages = []struct{ name, op string }{
	{"fuse", "OT&pp"},
	{"spec", "spec"},
	{"cell", "cell"},
	{"cellLabel", "cellLabel"},
	{"out", "out"},
	{"expert", "expert"},
}

// perLayer are the metrics a traced run prints for the workloads of
// BENCHMARK.json. A workload that does not exercise one reports it as 0.
// remote-late-deploy, which BENCHMARK.json does not list, prints its
// pubsub, kvstore, codec, checkpoint and per-process metrics besides
// (README.md lists which workload measures which).
var perLayer = func() []metricDef {
	// p90 latency has no bound: on a shared 2-vCPU machine the p90 of a
	// 30 s run follows how much CPU the hypervisor steals (README.md).
	m := []metricDef{
		{"layer_latency_p90_ms", "ms", "lower", 0},
		{"stage.source.blocked_ms_per_image", "ms", "lower", 0},
	}
	for _, st := range tableStages {
		m = append(m,
			metricDef{"stage." + st.name + ".busy_ms_per_image", "ms", "lower", 0},
			metricDef{"stage." + st.name + ".tuples_out_per_image", "count", "lower", 0},
			metricDef{"stage." + st.name + ".avg_chunk", "count", "higher", 0})
	}
	return append(m,
		metricDef{"otimage.split_ms_per_image", "ms", "lower", 0},
		metricDef{"cluster.dbscan_ms_per_result", "ms", "lower", 0},
		metricDef{"cluster.window_points_per_result", "count", "lower", 0},
		metricDef{"runtime.gc_cycles_per_image", "count", "lower", 0},
		metricDef{"runtime.gc_pause_ms_per_image", "ms", "lower", 0},
		metricDef{"proc.owner.cpu_ms_per_image", "ms", "lower", 0},
		metricDef{"trace.images_per_s", "1/s", "higher", 0},
		metricDef{"host.steal_pct", "%", "lower", 0},
	)
}()
