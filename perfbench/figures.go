package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime/pprof"
	"slices"
	"strings"
	"time"

	"confluence/internal/core"
	"confluence/internal/experiments"
	"confluence/internal/frontend"
	"confluence/internal/store"
	"confluence/internal/synth"
)

// figScale is the figure workloads' scale: 4 simulated cores, 0.8M
// warm-up + 0.8M measured instructions per core.
var figScale = experiments.Small

// figCell is one cell of Figures 1 and 6, keyed the way the runner's own
// plans key it (default options at figScale).
type figCell struct {
	id  string
	w   *synth.Workload
	dp  core.DesignPoint
	opt core.Options
}

// figureCells lists the 65 distinct cells Figures 1 and 6 simulate, in
// canonical order: Figure 1's BTB-capacity sweep, then Figure 6's design
// grid (its Base1K baseline included once).
func figureCells(ws []*synth.Workload) []figCell {
	base := core.DefaultOptions()
	base.Cores = figScale.Cores
	var cells []figCell
	for _, w := range ws {
		for _, e := range experiments.Figure1Sizes {
			opt := base
			opt.SweepBTBEntries = e
			cells = append(cells, figCell{fmt.Sprintf("%s|%s|%d", w.Prof.Name, core.SweepBTB, e), w, core.SweepBTB, opt})
		}
	}
	designs := []core.DesignPoint{core.Base1K}
	for _, dp := range experiments.Figure6Designs {
		if dp != core.Base1K {
			designs = append(designs, dp)
		}
	}
	for _, dp := range designs {
		for _, w := range ws {
			cells = append(cells, figCell{fmt.Sprintf("%s|%s", w.Prof.Name, dp), w, dp, base})
		}
	}
	return cells
}

// nominalInstr is the instruction count exact mode simulates for one
// figure pass: every core of every cell, warm-up plus measure.
func nominalInstr(cells int) float64 {
	return float64(cells) * float64(figScale.Cores) * float64(figScale.Warmup+figScale.Measure)
}

// suiteProfiles returns the five paper profiles, reseeded from the
// workload seed unless it is the default.
func suiteProfiles(seed uint64) []synth.Profile {
	ps := synth.Profiles()
	if seed == defaultSeed {
		return ps
	}
	for i := range ps {
		ps[i].Seed = derive(seed, "profile/"+ps[i].Name)
	}
	return ps
}

// samplingFor returns the sampled workload's plan: AutoSampling for the
// measure region, with its window jitter reseeded unless the seed is the
// default.
func samplingFor(seed uint64) core.Sampling {
	sp := core.AutoSampling(figScale.Measure)
	if seed != defaultSeed {
		sp.JitterSeed = derive(seed, "jitter") | 1
	}
	return sp
}

// buildSuite generates the workloads one after another, timing each
// synth.Build.
func buildSuite(ps []synth.Profile, tr *tracer) ([]*synth.Workload, []float64, error) {
	ws := make([]*synth.Workload, len(ps))
	ms := make([]float64, len(ps))
	for i, p := range ps {
		id := tr.begin("synth.Build", p.Name, 0)
		t := time.Now()
		w, err := synth.Build(p)
		ms[i] = float64(time.Since(t).Nanoseconds()) / 1e6
		tr.end(id)
		if err != nil {
			return nil, nil, fmt.Errorf("building %s: %w", p.Name, err)
		}
		ws[i] = w
	}
	return ws, ms, nil
}

// cellOut is one cell's result, read back from the runner's memo.
type cellOut struct {
	ID      string                     `json:"id"`
	Stats   *frontend.Stats            `json:"stats"`
	PerCore []*frontend.Stats          `json:"per_core"`
	Sampled *experiments.SampledReport `json:"sampled,omitempty"`
}

// passOut is one regeneration of Figures 1 and 6.
type passOut struct {
	wall, cpu time.Duration
	// done holds each cell's completion offset from the pass start, in
	// completion order; split is how many belong to Figure 1's plan.
	done   []time.Duration
	split  int
	fig6At time.Duration // offset at which Figure 6's plan started
	// steps splits the pass into consecutive pieces that together make
	// up its wall and CPU time: each cell from the previous completion to
	// its own, then the rest of each plan after its last cell. With one
	// worker, step i is the same piece of work in every pass.
	steps  []stepTime
	labels []string // the cell of each step ("" for a plan's rest)
	cells  []cellOut
	// Sampled passes: the pass's store and its counters.
	storeDir             string
	hits, misses, writes uint64
}

// figurePass regenerates Figures 1 and 6 with a fresh runner (and, when
// sampled, a fresh store), then reads every cell back from the memo.
func figurePass(ctx context.Context, e *env, ws []*synth.Workload, sp core.Sampling, workers int, tr *tracer, parent int) (*passOut, error) {
	r := experiments.NewRunnerFor(figScale, ws)
	r.Workers = workers
	out := &passOut{}
	var st *store.Store
	if sp.Enabled() {
		r.Sampling = sp
		dir, err := os.MkdirTemp(e.tmp, "store-")
		if err != nil {
			return nil, err
		}
		out.storeDir = dir
		st = store.Open(dir)
		r.Store = st
	}
	var start time.Time
	var lastDone time.Time
	var prev stepMark
	step := func(label string) {
		now := stepMark{time.Now(), cpuTime()}
		out.steps = append(out.steps, stepTime{now.wall.Sub(prev.wall), now.cpu - prev.cpu})
		out.labels = append(out.labels, label)
		prev = now
	}
	phase, figSpan := "fig1", 0
	r.OnProgress = func(ev experiments.ProgressEvent) { // serialized by the runner
		step(ev.Mix + "|" + ev.Design)
		now := prev.wall
		out.done = append(out.done, now.Sub(start))
		if tr != nil {
			from := lastDone
			if workers > 1 {
				from = now // concurrent cells: only the completion is observable
			}
			tr.record("experiments.cell", phase+"|"+ev.Mix+"|"+ev.Design, figSpan, from, now)
		}
		lastDone = now
	}
	cpu0 := cpuTime()
	start = time.Now()
	lastDone = start
	prev = stepMark{start, cpu0}
	figSpan = tr.begin("experiments.Figure1", "", parent)
	_, err := r.Figure1(ctx)
	tr.end(figSpan)
	if err != nil {
		return nil, err
	}
	step("")
	out.split = len(out.done)
	phase = "fig6"
	lastDone = time.Now()
	out.fig6At = lastDone.Sub(start)
	figSpan = tr.begin("experiments.Figure6", "", parent)
	_, err = r.Figure6(ctx)
	tr.end(figSpan)
	if err != nil {
		return nil, err
	}
	step("")
	out.wall = prev.wall.Sub(start)
	out.cpu = prev.cpu - cpu0
	if st != nil {
		out.hits, out.misses, out.writes = st.Counters()
	}

	// Read every cell back; each must be a memo hit, not a new simulation.
	events := len(out.done)
	for _, c := range figureCells(ws) {
		s, pc, rep, err := r.RunMixSampledCtx(ctx, []*synth.Workload{c.w}, c.dp, c.opt)
		if err != nil {
			return nil, fmt.Errorf("reading back %s: %w", c.id, err)
		}
		out.cells = append(out.cells, cellOut{ID: c.id, Stats: s, PerCore: pc, Sampled: rep})
	}
	if len(out.done) != events {
		return nil, fmt.Errorf("reading cells back simulated %d new cells: the cell list no longer matches the figures' plans", len(out.done)-events)
	}
	return out, nil
}

// digests returns the pass's per-cell digests. A sampled report's
// SnapshotReused flag is left out: whether a cell found its warm snapshot
// already stored depends on which cell of its warm class a worker reached
// first, and restore is bit-identical to live warm-up, so only the
// simulated results are pinned.
func (p *passOut) digests() (cellDigests, error) {
	d := make(cellDigests, len(p.cells))
	for _, c := range p.cells {
		if c.Sampled != nil {
			rep := *c.Sampled
			rep.SnapshotReused = false
			c.Sampled = &rep
		}
		h, err := digestOf(c)
		if err != nil {
			return nil, err
		}
		d[c.ID] = h
	}
	return d, nil
}

// tailIdle returns the worker-seconds the pool sat idle at the end of each
// plan: once the last cell of a plan has been handed out, every worker
// that finishes waits for the plan's slowest cell.
func tailIdle(done []time.Duration, split, workers int) float64 {
	idle := 0.0
	for _, plan := range [][]time.Duration{done[:split], done[split:]} {
		n := len(plan)
		if n == 0 {
			continue
		}
		last := plan[n-1]
		for k := 1; k < workers && n-1-k >= 0; k++ {
			idle += (last - plan[n-1-k]).Seconds()
		}
	}
	return idle
}

func runFigures(e *env, sampled bool) (*report, error) {
	ctx := context.Background()
	name := "figures-exact"
	var sp core.Sampling
	if sampled {
		name = "figures-sampled"
		sp = samplingFor(e.seed)
	}
	rep := &report{metrics: make(map[string]float64)}

	// Set-up: generate the workload suite, setupRepeats times; the median
	// is setup_s and the last build is the one measured.
	ps := suiteProfiles(e.seed)
	var setups, buildMS []float64
	var ws []*synth.Workload
	for i := 0; i < setupRepeats; i++ {
		t := time.Now()
		var err error
		var ms []float64
		ws, ms, err = buildSuite(ps, e.tr)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t).Seconds())
		buildMS = append(buildMS, ms...)
	}
	rep.metrics["setup_s"] = median(setups)
	cells := figureCells(ws)

	if e.traced {
		return traceFigures(ctx, e, name, ws, sp, rep, median(buildMS))
	}

	// Timed region: at least minPasses whole passes, then more while the
	// next one, as long as the last, still ends within the run length.
	var passes []*passOut
	heap := startHeapSampler()
	t0 := time.Now()
	for len(passes) < minPasses || time.Since(t0)+passes[len(passes)-1].wall <= e.seconds {
		p, err := figurePass(ctx, e, ws, sp, e.workers, nil, 0)
		if err != nil {
			heap.finish()
			return nil, err
		}
		passes = append(passes, p)
	}
	rep.metrics["peak_heap_mb"] = heap.finish()
	// The pass stores are removed only now: deleting tens of megabytes
	// between passes would leave the file system freeing them during the
	// next one.
	for _, p := range passes {
		if p.storeDir != "" {
			os.RemoveAll(p.storeDir)
		}
	}

	wall, cpu, err := fastestSteps(passes)
	if err != nil {
		return nil, err
	}
	var walls, lat []float64
	var wallSum float64
	for _, p := range passes {
		walls = append(walls, p.wall.Seconds())
		wallSum += p.wall.Seconds()
		for _, d := range p.done {
			lat = append(lat, float64(d.Nanoseconds())/1e6)
		}
	}
	rep.metrics["wall_s"] = wall
	rep.metrics["cpu_s"] = cpu
	rep.metrics["minstr_per_s"] = nominalInstr(len(cells)) / wall / 1e6
	jobMetrics(lat, float64(len(cells)*len(passes))/wallSum, rep.metrics)

	// Output checks, outside the timed region.
	rep.attempted = len(cells) * len(passes)
	if err := checkFigurePasses(e, name, passes, rep); err != nil {
		return nil, err
	}
	if err := goldenCheck(ctx, rep); err != nil {
		return nil, err
	}
	rep.text = append(rep.text, fmt.Sprintf("%s: %d passes of %d cells, seed %d, %d workers, pass wall times %.3g s, fastest steps sum to %.3g s",
		name, len(passes), len(cells), e.seed, e.workers, walls, wall))
	return rep, nil
}

// minPasses is the fewest passes a figure run times, so that every step
// has a second try at running undisturbed.
const minPasses = 2

// stepTime is the wall and CPU time of one step of a pass.
type stepTime struct{ wall, cpu time.Duration }

// stepMark is a point in a pass: wall clock and process CPU time.
type stepMark struct {
	wall time.Time
	cpu  time.Duration
}

// fastestSteps returns the pass's wall and CPU seconds with every step at
// its fastest over the passes: the sum over steps of each step's least
// wall time, and likewise of its least CPU time. Other processes on a
// shared host only ever slow a step down, so a step's fastest repeat is
// its least disturbed one. Every pass must have run the same steps in the
// same order, which one worker guarantees.
func fastestSteps(passes []*passOut) (wall, cpu float64, err error) {
	first := passes[0]
	for i, p := range passes[1:] {
		if !slices.Equal(p.labels, first.labels) {
			return 0, 0, fmt.Errorf("pass %d ran its cells in another order than pass 0", i+1)
		}
	}
	for i := range first.steps {
		w, c := first.steps[i].wall, first.steps[i].cpu
		for _, p := range passes[1:] {
			w, c = min(w, p.steps[i].wall), min(c, p.steps[i].cpu)
		}
		wall += w.Seconds()
		cpu += c.Seconds()
	}
	return wall, cpu, nil
}

// checkFigurePasses verifies that every pass produced the same per-cell
// results and, at the default seed, that they match the committed digests.
// Each mismatching cell of each pass counts as failed.
func checkFigurePasses(e *env, name string, passes []*passOut, rep *report) error {
	first, err := passes[0].digests()
	if err != nil {
		return err
	}
	if e.seed == defaultSeed && e.writeDigests {
		if err := saveDigests(name, first); err != nil {
			return err
		}
		rep.text = append(rep.text, "wrote "+digestsPath+" for "+name)
	}
	var want cellDigests
	if e.seed == defaultSeed {
		if want, err = loadDigests(name); err != nil {
			return err
		}
	}
	for i, p := range passes {
		got, err := p.digests()
		if err != nil {
			return err
		}
		var problems []string
		if want != nil {
			problems = compareDigests(name, got, want)
		} else if i > 0 {
			problems = compareDigests(fmt.Sprintf("%s pass %d vs pass 0", name, i), got, first)
		}
		for _, pr := range problems {
			rep.fail("%s", pr)
		}
	}
	return nil
}

// goldenCheck re-runs the golden grid and counts each mismatching design
// as a failed attempt.
func goldenCheck(ctx context.Context, rep *report) error {
	n, problems, err := checkGolden(ctx)
	if err != nil {
		return err
	}
	rep.attempted += n
	for _, p := range problems {
		rep.fail("%s", p)
	}
	return nil
}

// traceFigures is the traced run of a figure workload: an untraced pass
// (the overhead baseline), a traced pass under the CPU profiler (both with
// the timed region's one worker, so cell times and store counts are
// visible from outside), a pass with a worker per CPU for the plans' idle
// tails, the sampled workload's exact reference, and the layer probes.
func traceFigures(ctx context.Context, e *env, name string, ws []*synth.Workload, sp core.Sampling, rep *report, buildMS float64) (*report, error) {
	tr := e.tr
	rep.metrics["synth.build_ms"] = buildMS
	cells := figureCells(ws)

	base, err := figurePass(ctx, e, ws, sp, e.workers, nil, 0)
	if err != nil {
		return nil, err
	}
	os.RemoveAll(base.storeDir)

	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, err
	}
	root := tr.begin("figures.pass", "traced", 0)
	traced, err := figurePass(ctx, e, ws, sp, e.workers, tr, root)
	tr.end(root)
	pprof.StopCPUProfile()
	if err != nil {
		return nil, err
	}
	rep.metrics["bench.trace_overhead_s"] = traced.wall.Seconds() - base.wall.Seconds()
	rep.metrics["grid.cells"] = float64(len(traced.done))
	if err := moduleMetrics(prof.Bytes(), nominalInstr(len(cells)), rep.metrics); err != nil {
		return nil, err
	}
	simRates(statsOf(traced.cells), rep.metrics)
	// Store counters come from the traced pass: with one worker, each cell
	// that shares a warm class with an earlier cell finds its snapshot
	// stored, so the counts repeat exactly; concurrent workers race for it.
	if err := storeMetrics(e, traced.storeDir, traced.hits, traced.misses, traced.writes, rep.metrics); err != nil {
		return nil, err
	}
	os.RemoveAll(traced.storeDir)
	var cellMS []float64
	for i, st := range traced.steps {
		if traced.labels[i] != "" {
			cellMS = append(cellMS, float64(st.wall.Nanoseconds())/1e6)
		}
	}
	rep.metrics["grid.cell_ms_p50"] = median(cellMS)
	rep.metrics["grid.cell_ms_max"] = maxOf(cellMS)

	// The idle tail of a plan only exists with several workers: one pass
	// with a worker per CPU measures it.
	root = tr.begin("figures.pass", fmt.Sprintf("workers=%d", e.cores), 0)
	wide, err := figurePass(ctx, e, ws, sp, e.cores, tr, root)
	tr.end(root)
	if err != nil {
		return nil, err
	}
	os.RemoveAll(wide.storeDir)
	rep.metrics["grid.tail_idle_s"] = tailIdle(wide.done, wide.split, e.cores)

	rep.metrics["sim.sample_err_pct"] = 0
	if sp.Enabled() {
		root = tr.begin("figures.pass", "exact-reference", 0)
		exact, err := figurePass(ctx, e, ws, core.Sampling{}, e.cores, nil, root)
		tr.end(root)
		if err != nil {
			return nil, err
		}
		var where string
		rep.metrics["sim.sample_err_pct"], where = sampleError(traced.cells, exact.cells, len(ws)*len(experiments.Figure1Sizes))
		rep.text = append(rep.text, fmt.Sprintf("%s: largest sampled-vs-exact error %.3g%% at %s", name, rep.metrics["sim.sample_err_pct"], where))
		var red []float64
		for _, c := range traced.cells {
			red = append(red, c.Sampled.DetailReduction())
		}
		rep.text = append(rep.text, fmt.Sprintf("%s: median detail reduction over cells %.2fx", name, median(red)))
	}

	if err := layerProbes(ctx, e, ws[0], rep.metrics); err != nil {
		return nil, err
	}
	// The serve layer is measured in figures-exact's traced run, the
	// shorter of the two.
	if sp.Enabled() {
		zeroMetrics(rep.metrics, "serve.")
	} else if err := serveLayer(ctx, e, rep); err != nil {
		return nil, err
	}

	rep.attempted += len(cells) * 3
	if err := checkFigurePasses(e, name, []*passOut{base, traced, wide}, rep); err != nil {
		return nil, err
	}
	if err := goldenCheck(ctx, rep); err != nil {
		return nil, err
	}
	table := formatTotals(tr.totals())
	path, err := writeTraceOutput(e, name, table+"\n"+layerTable(rep.metrics))
	if err != nil {
		return nil, err
	}
	rep.text = append(rep.text, table, "per-layer table: "+path)
	return rep, nil
}

// statsOf returns the cells' stats.
func statsOf(cells []cellOut) []*frontend.Stats {
	out := make([]*frontend.Stats, len(cells))
	for i, c := range cells {
		out[i] = c.Stats
	}
	return out
}

// sampleError returns the largest sampled-vs-exact error, in percent, of
// what the figures report: BTB MPKI on Figure 1's cells (the first
// fig1Cells, which the sampled figure takes from full-coverage probes) and
// IPC on every cell. An MPKI below 1 is skipped, since a relative error
// there measures noise in a near-zero count. It also returns the cell and
// quantity where the largest error occurs.
func sampleError(sampled, exact []cellOut, fig1Cells int) (float64, string) {
	worst, where := 0.0, ""
	note := func(id, what string, s, x float64) {
		if e := math.Abs(s-x) / x * 100; e > worst {
			worst, where = e, id+" "+what
		}
	}
	for i, s := range sampled {
		x := exact[i].Stats
		note(s.ID, "IPC", s.Stats.IPC(), x.IPC())
		if i < fig1Cells && s.Sampled != nil && x.BTBMPKI() >= 1 {
			note(s.ID, "BTB MPKI", s.Sampled.BestBTBMPKI(s.Stats), x.BTBMPKI())
		}
	}
	return worst, where
}

// simRates sets the simulated event rates of the summed stats. They are
// exact counts: a change that only speeds the simulator up leaves them
// unchanged.
func simRates(sts []*frontend.Stats, m map[string]float64) {
	var agg frontend.Stats
	for _, s := range sts {
		agg.Add(s)
	}
	pki := func(n uint64) float64 {
		if agg.Instructions == 0 {
			return 0
		}
		return float64(n) / float64(agg.Instructions) * 1000
	}
	m["sim.l1i_apki"] = pki(agg.L1IAccesses)
	m["sim.l1i_mpki"] = pki(agg.L1IMisses)
	m["sim.btb_lookups_pki"] = pki(agg.BTBTakenLookups)
	m["sim.btb_mpki"] = pki(agg.BTBMisses)
	m["sim.pref_issued_pki"] = pki(agg.PrefIssued)
	m["sim.pref_useful_pct"] = 0
	if agg.PrefIssued > 0 {
		m["sim.pref_useful_pct"] = float64(agg.PrefUseful) / float64(agg.PrefIssued) * 100
	}
}

// storeMetrics sets the store counters of a run's store directory and
// times Get over every entry it holds and Put of each into a fresh
// directory. An empty dir (the store was bypassed) reports zeros.
func storeMetrics(e *env, dir string, hits, misses, writes uint64, m map[string]float64) error {
	m["store.hits"], m["store.misses"], m["store.writes"] = float64(hits), float64(misses), float64(writes)
	m["store.bytes_written"], m["store.get_us"], m["store.put_us"] = 0, 0, 0
	if dir == "" {
		return nil
	}
	files, err := filepath.Glob(filepath.Join(dir, "*.entry"))
	if err != nil || len(files) == 0 {
		return err
	}
	probeDir, err := os.MkdirTemp(e.tmp, "store-probe-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(probeDir)
	src, dst := store.Open(dir), store.Open(probeDir)
	var gets, puts []float64
	var bytesWritten int64
	for _, f := range files {
		if fi, err := os.Stat(f); err == nil {
			bytesWritten += fi.Size()
		}
		key := strings.TrimSuffix(filepath.Base(f), ".entry")
		id := e.tr.begin("store.Get", key[:12], 0)
		t := time.Now()
		payload, ok := src.Get(key)
		gets = append(gets, float64(time.Since(t).Nanoseconds())/1e3)
		e.tr.end(id)
		if !ok {
			return fmt.Errorf("store entry %s unreadable", key)
		}
		id = e.tr.begin("store.Put", key[:12], 0)
		t = time.Now()
		err := dst.Put(key, payload)
		puts = append(puts, float64(time.Since(t).Nanoseconds())/1e3)
		e.tr.end(id)
		if err != nil {
			return err
		}
	}
	m["store.bytes_written"] = float64(bytesWritten)
	m["store.get_us"] = median(gets)
	m["store.put_us"] = median(puts)
	return nil
}
