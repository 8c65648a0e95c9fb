package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"sort"
	"strings"
	"time"

	"confluence/internal/core"
	"confluence/internal/experiments"
	"confluence/internal/fleet"
	"confluence/internal/frontend"
	"confluence/internal/store"
	"confluence/internal/synth"
	"confluence/internal/trace"
)

// refDesigns are the reference cells the layer probes time: the baseline
// frontend and the paper's design, on the first suite workload at the
// figure scale.
var refDesigns = []core.DesignPoint{core.Base1K, core.Confluence}

// refOptions are the reference cells' options (the figures' defaults).
func refOptions() core.Options {
	opt := core.DefaultOptions()
	opt.Cores = figScale.Cores
	return opt
}

// probeResult is one reference cell's outside-in layer timings.
type probeResult struct {
	assembleMS               float64
	warmNS, measureNS, ffNS  float64 // per simulated instruction
	genNS, instrPerRecord    float64
	replaySavingPct          float64
	snapshotBytes, restoreMS float64
	detailReduction          float64
}

// layerProbes times the layers below the runner on the reference cells
// and sets the trace, core and cmp probe metrics and the fleet overhead.
// Identity guards refuse the numbers (the run fails) when a split or
// replayed run does not reproduce the joined live run.
func layerProbes(ctx context.Context, e *env, w *synth.Workload, m map[string]float64) error {
	var rs []probeResult
	for _, dp := range refDesigns {
		root := e.tr.begin("probe.cell", w.Prof.Name+"|"+dp.String(), 0)
		r, err := probeCell(ctx, e, w, dp, root)
		e.tr.end(root)
		if err != nil {
			return fmt.Errorf("probing %s|%s: %w", w.Prof.Name, dp, err)
		}
		rs = append(rs, r)
	}
	med := func(f func(probeResult) float64) float64 {
		var xs []float64
		for _, r := range rs {
			xs = append(xs, f(r))
		}
		return median(xs)
	}
	m["core.assemble_ms"] = med(func(r probeResult) float64 { return r.assembleMS })
	m["cmp.warm_ns_per_instr"] = med(func(r probeResult) float64 { return r.warmNS })
	m["cmp.measure_ns_per_instr"] = med(func(r probeResult) float64 { return r.measureNS })
	m["cmp.ff_ns_per_instr"] = med(func(r probeResult) float64 { return r.ffNS })
	m["cmp.ff_over_detailed"] = m["cmp.ff_ns_per_instr"] / m["cmp.measure_ns_per_instr"]
	m["cmp.detail_reduction"] = med(func(r probeResult) float64 { return r.detailReduction })
	m["core.snapshot_bytes"] = med(func(r probeResult) float64 { return r.snapshotBytes })
	m["core.snapshot_restore_ms"] = med(func(r probeResult) float64 { return r.restoreMS })
	m["trace.gen_ns_per_instr"] = med(func(r probeResult) float64 { return r.genNS })
	m["trace.instr_per_record"] = med(func(r probeResult) float64 { return r.instrPerRecord })
	m["trace.replay_saving_pct"] = med(func(r probeResult) float64 { return r.replaySavingPct })

	ms, err := fleetOverhead(ctx, e)
	if err != nil {
		return err
	}
	m["fleet.overhead_ms_per_cell"] = ms
	return nil
}

// timed runs f inside a span and returns its duration.
func timed(e *env, name, req string, parent int, f func() error) (time.Duration, error) {
	id := e.tr.begin(name, req, parent)
	t := time.Now()
	err := f()
	d := time.Since(t)
	e.tr.end(id)
	return d, err
}

// probeCell times one reference cell layer by layer.
func probeCell(ctx context.Context, e *env, w *synth.Workload, dp core.DesignPoint, parent int) (probeResult, error) {
	var r probeResult
	req := w.Prof.Name + "|" + dp.String()
	opt := refOptions()
	mix := []*synth.Workload{w}
	cores := float64(opt.Cores)
	W, M := figScale.Warmup, figScale.Measure
	nsPer := func(d time.Duration, perCore uint64) float64 {
		return float64(d.Nanoseconds()) / (float64(perCore) * cores)
	}
	assemble := func(o core.Options) (*core.System, error) {
		var sys *core.System
		_, err := timed(e, "core.NewMixSystem", req, parent, func() error {
			var err error
			sys, err = core.NewMixSystem(mix, dp, o)
			return err
		})
		return sys, err
	}

	// Assembly alone, three times.
	var asm []float64
	for i := 0; i < 3; i++ {
		t := time.Now()
		sys, err := assemble(opt)
		if err != nil {
			return r, err
		}
		asm = append(asm, float64(time.Since(t).Nanoseconds())/1e6)
		sys.Close()
	}
	r.assembleMS = median(asm)

	// The joined live run: the reference for both identity guards.
	sys, err := assemble(opt)
	if err != nil {
		return r, err
	}
	var joined *frontend.Stats
	live, err := timed(e, "cmp.RunCtx(W,M)", req, parent, func() error {
		var err error
		joined, err = sys.RunCtx(ctx, W, M)
		return err
	})
	consumed := sys.ConsumedRecords()
	sys.Close()
	if err != nil {
		return r, err
	}

	// Split phases: RunCtx(W,0) then RunCtx(0,M) on one system.
	sys, err = assemble(opt)
	if err != nil {
		return r, err
	}
	warm, err := timed(e, "cmp.RunCtx(W,0)", req, parent, func() error {
		_, err := sys.RunCtx(ctx, W, 0)
		return err
	})
	if err != nil {
		sys.Close()
		return r, err
	}
	var split *frontend.Stats
	measure, err := timed(e, "cmp.RunCtx(0,M)", req, parent, func() error {
		var err error
		split, err = sys.RunCtx(ctx, 0, M)
		return err
	})
	sys.Close()
	if err != nil {
		return r, err
	}
	if !reflect.DeepEqual(split, joined) {
		return r, fmt.Errorf("identity guard: RunCtx(W,0)+RunCtx(0,M) stats differ from RunCtx(W,M); split-phase timings refused")
	}
	r.warmNS, r.measureNS = nsPer(warm, W), nsPer(measure, M)

	// Trace generation, standalone: each core's executor drained to the
	// length that core consumed in the live run.
	recs := make([][]trace.Record, len(consumed))
	var gen time.Duration
	var instr, records float64
	for i, n := range consumed {
		ex := trace.NewExecutor(w, trace.CoreSeed(w.Prof.Seed, i))
		buf := make([]trace.Record, n)
		d, err := timed(e, "trace.Executor.NextBatch", fmt.Sprintf("%s|core%d", req, i), parent, func() error {
			for off := 0; off < len(buf); {
				k, err := ex.NextBatch(buf[off:min(off+64, len(buf))])
				if err != nil {
					return err
				}
				off += k
			}
			return nil
		})
		if err != nil {
			return r, err
		}
		gen += d
		for _, rec := range buf {
			instr += float64(rec.N)
		}
		records += float64(len(buf))
		recs[i] = buf
	}
	r.genNS = float64(gen.Nanoseconds()) / instr
	r.instrPerRecord = instr / records

	// In-memory replay through Options.Sources. The recordings do not
	// loop: a core that needed more than it consumed live would fail.
	ropt := opt
	ropt.Sources = func(i int) (trace.Source, error) { return trace.NewMemSource(recs[i], false), nil }
	sys, err = assemble(ropt)
	if err != nil {
		return r, err
	}
	var replayed *frontend.Stats
	replay, err := timed(e, "cmp.RunCtx(W,M) replay", req, parent, func() error {
		var err error
		replayed, err = sys.RunCtx(ctx, W, M)
		return err
	})
	sys.Close()
	if err != nil {
		return r, fmt.Errorf("identity guard: replay: %w", err)
	}
	if !reflect.DeepEqual(replayed, joined) {
		return r, fmt.Errorf("identity guard: in-memory replay stats differ from the live run; replay timings refused")
	}
	r.replaySavingPct = (1 - replay.Seconds()/live.Seconds()) * 100

	// Functional fast-forward over the warm-up, then the warm snapshot it
	// leaves, then a restore into a fresh system.
	sys, err = assemble(opt)
	if err != nil {
		return r, err
	}
	ff, err := timed(e, "cmp.FastForward", req, parent, func() error { return sys.FastForward(ctx, W) })
	if err != nil {
		sys.Close()
		return r, err
	}
	r.ffNS = nsPer(ff, W)
	var snap []byte
	_, err = timed(e, "core.WarmSnapshot", req, parent, func() error {
		var err error
		snap, err = sys.WarmSnapshot()
		return err
	})
	sys.Close()
	if err != nil {
		return r, err
	}
	r.snapshotBytes = float64(len(snap))
	sys, err = assemble(opt)
	if err != nil {
		return r, err
	}
	restore, err := timed(e, "core.RestoreWarmSnapshot", req, parent, func() error { return sys.RestoreWarmSnapshot(ctx, snap) })
	sys.Close()
	if err != nil {
		return r, err
	}
	r.restoreMS = float64(restore.Nanoseconds()) / 1e6

	// The sampled run's detail reduction.
	sys, err = assemble(opt)
	if err != nil {
		return r, err
	}
	var rep *experiments.SampledReport
	_, err = timed(e, "experiments.RunSampledSystem", req, parent, func() error {
		var err error
		_, _, rep, err = experiments.RunSampledSystem(ctx, sys, W, samplingFor(e.seed), nil, "")
		return err
	})
	sys.Close()
	if err != nil {
		return r, err
	}
	r.detailReduction = rep.DetailReduction()
	return r, nil
}

// fleetCells is how many fresh cells the fleet probe coordinates.
const fleetCells = 200

// fleetOverhead times fleet.Coordinator over fresh cell keys with a
// runner that returns a fixed payload, so only the protocol (manifest,
// leases, attempt ledger, store writes and completion scans) is timed.
func fleetOverhead(ctx context.Context, e *env) (float64, error) {
	dir, err := os.MkdirTemp(e.tmp, "fleet-probe-")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	cells := make([]fleet.Cell, fleetCells)
	for i := range cells {
		cells[i] = fleet.Cell{
			ID:   fmt.Sprintf("c%03d", i),
			Key:  store.Key([]byte(fmt.Sprintf("perfbench-fleet-probe/%d/%d", e.seed, i))),
			Spec: json.RawMessage(`{}`),
		}
	}
	payload := []byte(`{"probe":true}`)
	storeDir := dir + "/store"
	o := fleet.Options{
		Dir:      dir + "/coord",
		Store:    store.Open(storeDir),
		WorkerID: "perfbench",
		Run:      func(context.Context, fleet.Cell) ([]byte, error) { return payload, nil },
	}
	var rep *fleet.Report
	d, err := timed(e, "fleet.Coordinator", "probe", 0, func() error {
		var err error
		rep, err = fleet.Coordinator(ctx, o, storeDir, cells)
		return err
	})
	if err != nil {
		return 0, err
	}
	if rep.Failed() {
		return 0, fmt.Errorf("fleet probe quarantined %d cells", len(rep.Poisoned))
	}
	return float64(d.Nanoseconds()) / 1e6 / fleetCells, nil
}

// zeroMetrics sets every listed per-layer metric the run has not measured
// to 0: a layer this workload does not exercise.
func zeroMetrics(m map[string]float64, prefixes ...string) {
	for _, d := range perLayer {
		for _, p := range prefixes {
			if strings.HasPrefix(d.Name, p) {
				if _, ok := m[d.Name]; !ok {
					m[d.Name] = 0
				}
			}
		}
	}
}

// layerTable renders the per-layer metrics with their units.
func layerTable(m map[string]float64) string {
	names := make([]string, 0, len(perLayer))
	for _, d := range perLayer {
		names = append(names, d.Name)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, n := range names {
		u, _ := unitOf(perLayer, n)
		fmt.Fprintf(&b, "%-30s %16.6g %s\n", n, m[n], u)
	}
	return b.String()
}
