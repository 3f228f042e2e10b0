package main

// metricDef names one metric and its unit. The tables below are the
// benchmark's contract: BENCHMARK.json lists the same names and units
// (TestBenchmarkJSONMatchesTables), every untraced run reports every
// end-to-end metric, and every traced run reports every per-layer metric,
// 0 where the workload does not exercise the layer.
type metricDef struct {
	name, unit string
}

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"sim_refs_per_s", "refs/s"},
	{"cpu_us_per_ref", "us"},
	{"peak_rss_mb", "MB"},
	{"sim_cycles", "cycles"},
}

var perLayer = []metricDef{
	// Host time from spans around public calls (s unless noted).
	{"oram.new_engine_s", "s"},
	{"core.select_dup_s", "s"},
	{"core.note_evict_s", "s"},
	{"core.other_s", "s"},
	{"oram.issue_s", "s"},
	{"oram.issue_ns_per_req", "ns"},
	{"oram.self_s", "s"},
	{"trace.next_s", "s"},
	{"cpu.self_s", "s"},
	{"experiments.cell_s_p50", "s"},
	{"experiments.cell_s_max", "s"},
	{"trace.overhead_s", "s"},
	{"trace.overhead_frac", "ratio"},
	{"kv.self_s", "s"},
	{"oram.read_s", "s"},
	{"oram.write_s", "s"},
	{"store.read_bucket_s", "s"},
	{"store.write_bucket_s", "s"},
	{"store.bucket_ops_per_req", "count"},
	{"store.bytes_written_per_user_byte", "ratio"},
	{"crypt.seal_ns", "ns"},
	{"crypt.open_ns", "ns"},
	{"crypt.seals_per_req", "count"},
	{"crypt.opens_per_req", "count"},
	// The KV service seen from its client and from /statsz.
	{"kv.get_p50_us", "us"},
	{"kv.get_p99_us", "us"},
	{"kv.put_p50_us", "us"},
	{"kv.put_p99_us", "us"},
	{"kv.closed_rps", "req/s"},
	{"kv.fail_frac", "ratio"},
	{"shadowd.service_get_us_p50", "us"},
	{"shadowd.service_put_us_p50", "us"},
	{"shadowd.overhead_get_us_p50", "us"},
	{"loadgen.late_p99_us", "us"},
	// Exact simulator counts: identical on every run of one seed.
	{"oram.requests", "count"},
	{"oram.accesses", "count"},
	{"oram.pm_accesses", "count"},
	{"oram.evictions", "count"},
	{"oram.onchip_hit_rate", "ratio"},
	{"oram.shadow_forward_rate", "ratio"},
	{"core.shadows_created", "count"},
	{"core.shadow_yield", "ratio"},
	{"stash.max_real", "count"},
	{"oram.stash_overflows", "count"},
	{"oram.anomalies", "count"},
	{"queue.issued", "count"},
	{"queue.coalesced", "count"},
	{"queue.coalesce_rate", "ratio"},
	{"queue.max_depth", "count"},
	{"oram.wb_slotted_frac", "ratio"},
	{"oram.wb_forced", "count"},
	{"dram.reads", "count"},
	{"dram.writes", "count"},
	{"dram.activates", "count"},
	{"dram.row_hit_rate", "ratio"},
	{"ledger.posmap_walk", "cycles"},
	{"ledger.path_read", "cycles"},
	{"ledger.stash_update", "count"},
	{"ledger.evict_drain", "cycles"},
	{"ledger.queue_wait", "cycles"},
	{"ledger.coalesce", "cycles"},
	{"ledger.violations", "count"},
	{"exp.shadow_speedup", "ratio"},
	{"exp.dyn3_slowdown", "ratio"},
}

// setPerLayer reports every per-layer metric from v, 0 for the ones the
// workload does not produce.
func setPerLayer(o *outcome, v map[string]float64) {
	known := make(map[string]bool, len(perLayer))
	for _, d := range perLayer {
		known[d.name] = true
	}
	for name := range v {
		if !known[name] {
			panic("perfbench: per-layer metric " + name + " missing from the table")
		}
	}
	for _, d := range perLayer {
		o.set(d.name, finite(v[d.name]), d.unit)
	}
}
