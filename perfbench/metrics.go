package main

// metricDef names one reported metric. The lists below are the single
// definition of what the benchmark reports; BENCHMARK.json at the
// repository root repeats them (a test keeps the two in step).
type metricDef struct {
	Name   string
	Unit   string
	Better string // "higher" or "lower"
}

// endToEnd are the metrics a user of the system sees, reported by every
// untraced run. A "pass" is the workload's fixed unit of work: one
// regeneration of Figures 1 and 6 (65 cells).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"wall_s", "s", "lower"},
	{"cpu_s", "s", "lower"},
	{"minstr_per_s", "Minstr/s", "higher"},
	{"peak_heap_mb", "MB", "lower"},
}

// alsoReported are printed with the end-to-end metrics where a run has
// them, but are not in the result line: they only restate wall_s, or the
// percentile rule withholds them. A "job" is a grid cell; all 65 are
// submitted when the pass starts.
var alsoReported = []metricDef{
	{"job_p50_ms", "ms", "lower"},
	{"job_p99_ms", "ms", "lower"},
	{"jobs_per_s", "1/s", "higher"},
	{"bench.host_calib_ms", "ms", "lower"},
}

// profiledModules are the packages whose self CPU time the traced run
// attributes per simulated instruction; runtime.gc collects the garbage
// collector's functions.
var profiledModules = []string{
	"frontend", "bpu", "btb", "airbtb", "phantom", "cache", "shift", "fdp",
	"mem", "noc", "flatmap", "trace", "cmp", "runtime.gc",
}

// serveClasses are the job classes of the traced serve load.
var serveClasses = []string{"hit", "miss", "sweep"}

// perLayer are the traced run's metrics, one layer at a time.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	ms := []metricDef{
		{"synth.build_ms", "ms", "lower"},
		{"trace.gen_ns_per_instr", "ns/instr", "lower"},
		{"trace.instr_per_record", "instr", "higher"},
		{"trace.replay_saving_pct", "%", "higher"},
		{"core.assemble_ms", "ms", "lower"},
		{"cmp.warm_ns_per_instr", "ns/instr", "lower"},
		{"cmp.measure_ns_per_instr", "ns/instr", "lower"},
		{"cmp.ff_ns_per_instr", "ns/instr", "lower"},
		{"cmp.ff_over_detailed", "x", "lower"},
		{"cmp.detail_reduction", "x", "higher"},
		{"core.snapshot_bytes", "B", "lower"},
		{"core.snapshot_restore_ms", "ms", "lower"},
		{"grid.cells", "count", "higher"},
		{"grid.tail_idle_s", "s", "lower"},
		{"grid.cell_ms_p50", "ms", "lower"},
		{"grid.cell_ms_max", "ms", "lower"},
	}
	for _, m := range profiledModules {
		ms = append(ms,
			metricDef{m + ".cpu_pct", "%", "lower"},
			metricDef{m + ".ns_per_instr", "ns/instr", "lower"})
	}
	ms = append(ms,
		metricDef{"sim.l1i_apki", "1/kinstr", "lower"},
		metricDef{"sim.l1i_mpki", "1/kinstr", "lower"},
		metricDef{"sim.btb_lookups_pki", "1/kinstr", "lower"},
		metricDef{"sim.btb_mpki", "1/kinstr", "lower"},
		metricDef{"sim.pref_issued_pki", "1/kinstr", "lower"},
		metricDef{"sim.pref_useful_pct", "%", "higher"},
		metricDef{"sim.sample_err_pct", "%", "lower"},
		metricDef{"store.get_us", "us", "lower"},
		metricDef{"store.put_us", "us", "lower"},
		metricDef{"store.hits", "count", "higher"},
		metricDef{"store.misses", "count", "lower"},
		metricDef{"store.writes", "count", "lower"},
		metricDef{"store.bytes_written", "B", "lower"},
	)
	for _, stage := range []string{"admit", "queue", "exec", "fetch"} {
		for _, c := range serveClasses {
			ms = append(ms, metricDef{"serve." + stage + "_ms." + c, "ms", "lower"})
		}
	}
	ms = append(ms,
		metricDef{"serve.result_kb", "KiB", "lower"},
		metricDef{"serve.job_p50_ms", "ms", "lower"},
		metricDef{"serve.job_p99_ms", "ms", "lower"},
		metricDef{"serve.jobs_per_s", "1/s", "higher"},
		metricDef{"fleet.overhead_ms_per_cell", "ms", "lower"},
		metricDef{"bench.trace_overhead_s", "s", "lower"},
		metricDef{"bench.host_calib_ms", "ms", "lower"},
	)
	return ms
}

func unitOf(defs []metricDef, name string) (string, bool) {
	for _, d := range defs {
		if d.Name == name {
			return d.Unit, true
		}
	}
	return "", false
}
