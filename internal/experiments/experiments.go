// Package experiments regenerates every table and figure of the paper's
// evaluation (DESIGN.md §4 maps each to its modules). Each runner returns
// typed results plus a formatted table whose rows match what the paper
// reports; absolute values differ from the paper (our substrate is a
// synthetic-workload simulator), but the shapes — orderings, rough factors,
// crossovers — are the reproduction target (EXPERIMENTS.md tracks both).
//
// The evaluation grid is embarrassingly parallel: every (workload, design
// point, options) cell is a self-contained, individually seeded simulation.
// Figures collect their cells into a Plan, which executes them on a bounded
// worker pool and memoizes results by cell key; tables are then assembled
// from the memo in canonical cell order, so output is bit-identical
// regardless of worker count.
package experiments

import (
	"context"
	"errors"
	"fmt"
	"os"
	"strings"
	"sync"

	"confluence/internal/core"
	"confluence/internal/frontend"
	"confluence/internal/parallel"
	"confluence/internal/store"
	"confluence/internal/synth"
)

// Scale sets the simulation effort: CMP width and per-core warmup/measure
// instruction counts.
type Scale struct {
	Name    string
	Cores   int
	Warmup  uint64
	Measure uint64
}

// Predefined scales. Small keeps unit tests fast; Default balances fidelity
// and runtime for benches and the CLI; Paper approximates the paper's
// 16-core setup.
var (
	Small   = Scale{Name: "small", Cores: 4, Warmup: 800_000, Measure: 800_000}
	Default = Scale{Name: "default", Cores: 8, Warmup: 1_500_000, Measure: 1_500_000}
	Paper   = Scale{Name: "paper", Cores: 16, Warmup: 3_000_000, Measure: 3_000_000}
)

// ScaleByName returns a predefined scale.
func ScaleByName(name string) (Scale, bool) {
	for _, s := range []Scale{Small, Default, Paper} {
		if s.Name == name {
			return s, true
		}
	}
	return Scale{}, false
}

// ScaleFromEnv reads REPRO_SCALE (small|default|paper), defaulting to
// Default.
func ScaleFromEnv() Scale {
	if s, ok := ScaleByName(os.Getenv("REPRO_SCALE")); ok {
		return s
	}
	return Default
}

// Runner executes design points over the workload suite, caching results so
// figures that share runs (e.g. the Base1K baseline) pay for them once. A
// Runner is safe for concurrent use: the memo cache is singleflight per
// cell key and Progress callbacks are serialized, even when Workers is 1.
type Runner struct {
	Scale     Scale
	Workloads []*synth.Workload
	// Workers bounds concurrent simulations when a Plan executes. Zero
	// resolves through REPRO_WORKERS, then GOMAXPROCS (see parallel.Workers).
	Workers int
	// IntraWorkers enables bound-weave parallelism inside each simulation
	// (core.Options.IntraWorkers). The runner's goroutine budget is shared:
	// with IntraWorkers > 1 the grid fan-out shrinks to
	// max(1, Workers/IntraWorkers), so grid-level times in-run parallelism
	// stays bounded by the configured worker count.
	IntraWorkers int
	// EpochBlocks is the bound-weave epoch depth K forwarded to every cell
	// (core.Options.EpochBlocks); 0/1 is the exact mode.
	EpochBlocks int
	// Sampling, when enabled, runs every cell in SMARTS-style sampled
	// mode: warm-up by functional fast-forward (reusing durable warm
	// snapshots when Store is set), then windowed detailed measurement
	// per the plan (see core.Sampling). Sampled cells occupy their own
	// memo and store namespace — the zero value (exact mode) remains the
	// default and the golden anchor.
	Sampling core.Sampling
	// Store, if set, is the durable result store consulted before and
	// written after every simulation: a cell whose key (CellStoreKey —
	// workloads, design, options, instruction counts, ResultVersion) is
	// already stored returns the persisted result without simulating, which
	// is what makes an interrupted grid resumable across processes. Nil
	// keeps the in-memory memo cache as the only caching layer, exactly the
	// pre-store behavior. Cells the store cannot identify (an
	// Options.Sources override) bypass it silently.
	Store *store.Store
	// Progress, if set, receives a line per completed run. Calls are
	// serialized; the callback needs no locking of its own.
	Progress func(string)
	// OnProgress, if set, receives the structured form of the same
	// per-completed-run event (the wire format the serving layer streams
	// over SSE). Calls are serialized with Progress under one lock, and
	// when both callbacks are set each completed run reaches OnProgress
	// first, then Progress with the formatted line of the same event.
	OnProgress func(ProgressEvent)

	mu         sync.Mutex // guards cache
	cache      map[string]*cacheEntry
	progressMu sync.Mutex
}

// cacheEntry is a singleflight slot: the first goroutine to claim a cell
// key simulates it and closes done; later arrivals block on done and share
// the result.
type cacheEntry struct {
	done    chan struct{}
	stats   *frontend.Stats
	perCore []*frontend.Stats
	sampled *SampledReport // non-nil only for sampled cells
	err     error
}

// NewRunner builds the five-workload suite at the given scale, fanning
// workload generation out across the same bound the returned runner will
// simulate with (workers resolves like Runner.Workers; pass 0 for the
// REPRO_WORKERS/GOMAXPROCS default).
func NewRunner(sc Scale, workers int) (*Runner, error) {
	r := &Runner{Scale: sc, Workers: workers, cache: make(map[string]*cacheEntry)}
	profiles := synth.Profiles()
	ws := make([]*synth.Workload, len(profiles))
	err := parallel.ForEach(context.Background(), r.workers(), len(profiles),
		func(_ context.Context, i int) error {
			w, err := synth.Build(profiles[i])
			if err != nil {
				return fmt.Errorf("experiments: building %s: %w", profiles[i].Name, err)
			}
			ws[i] = w
			return nil
		})
	if err != nil {
		return nil, err
	}
	r.Workloads = ws
	return r, nil
}

// NewRunnerFor builds a runner over an explicit workload list (tests).
func NewRunnerFor(sc Scale, ws []*synth.Workload) *Runner {
	return &Runner{Scale: sc, Workloads: ws, cache: make(map[string]*cacheEntry)}
}

// MixName labels a workload mix: the single workload's name, or the slot
// names joined with "+" (the order is the core assignment, so it is part of
// the cell identity).
func MixName(mix []*synth.Workload) string {
	if len(mix) == 1 {
		return mix[0].Prof.Name
	}
	names := make([]string, len(mix))
	for i, w := range mix {
		names[i] = w.Prof.Name
	}
	return strings.Join(names, "+")
}

// cellStoreKey is a cell's one identity at this runner's scale and sampling
// plan: its durable store key (CellStoreKeySampled), which the memo, its
// singleflight and plan deduplication all use too. ok is false for cells
// the key cannot express — an Options.Sources override or an unreadable
// capture directory — which are neither memoized nor stored.
func (r *Runner) cellStoreKey(mix []*synth.Workload, dp core.DesignPoint, opt core.Options) (key string, ok bool) {
	return CellStoreKeySampled(r.Scale.Warmup, r.Scale.Measure, mix, "", dp, opt, r.Sampling)
}

// SplitWorkers resolves a goroutine budget shared between grid-level and
// in-run parallelism: workers (0 = REPRO_WORKERS, then GOMAXPROCS) divided
// by the per-simulation stepping workers, floor 1 — so grid fan-out times
// intra workers stays ≈ the budget. It is the single definition behind
// Runner.workers() and the CLIs' replay paths.
func SplitWorkers(workers, intraWorkers int) int {
	g := parallel.Workers(workers)
	if intraWorkers > 1 {
		g /= intraWorkers
		if g < 1 {
			g = 1
		}
	}
	return g
}

// workers resolves the runner's effective grid-level worker count (see
// SplitWorkers).
func (r *Runner) workers() int { return SplitWorkers(r.Workers, r.IntraWorkers) }

// Run simulates one (workload, design point, options) cell, with caching.
// It is shorthand for RunCtx with a background context.
func (r *Runner) Run(w *synth.Workload, dp core.DesignPoint, opt core.Options) (*frontend.Stats, error) {
	return r.RunCtx(context.Background(), w, dp, opt)
}

// RunCtx simulates one cell, memoizing by cell key (cells without one run
// unmemoized). Concurrent calls for the same key simulate once and share
// the result (singleflight); a failed or cancelled computation is evicted
// so later calls can retry. A waiter whose own context is still live does
// not inherit a leader's cancellation — it retries the (evicted) key, so
// cancelling one plan never fails a concurrent plan sharing cells on the
// same runner.
func (r *Runner) RunCtx(ctx context.Context, w *synth.Workload, dp core.DesignPoint, opt core.Options) (*frontend.Stats, error) {
	st, _, err := r.RunMixCtx(ctx, []*synth.Workload{w}, dp, opt)
	return st, err
}

// RunMixCtx simulates one consolidated cell — core i of the CMP runs
// mix[i mod len(mix)] — returning the aggregate stats and each core's
// stats in core order. Memoization and singleflight behave exactly as in
// RunCtx; a single-workload mix shares its cache cell with the
// homogeneous RunCtx of the same workload.
func (r *Runner) RunMixCtx(ctx context.Context, mix []*synth.Workload, dp core.DesignPoint, opt core.Options) (*frontend.Stats, []*frontend.Stats, error) {
	st, perCore, _, err := r.RunMixSampledCtx(ctx, mix, dp, opt)
	return st, perCore, err
}

// RunMixSampledCtx is RunMixCtx additionally returning the cell's
// sampling report: non-nil exactly when the runner's Sampling is enabled
// (a stored sampled cell round-trips its report through the store
// entry). Exact runners get nil — there is nothing to report beyond the
// stats.
func (r *Runner) RunMixSampledCtx(ctx context.Context, mix []*synth.Workload, dp core.DesignPoint, opt core.Options) (*frontend.Stats, []*frontend.Stats, *SampledReport, error) {
	key, ok := r.cellStoreKey(mix, dp, opt)
	if !ok {
		return r.simulate(ctx, "", mix, dp, opt)
	}
	for {
		r.mu.Lock()
		e, leader := r.cache[key]
		if !leader {
			e = &cacheEntry{done: make(chan struct{})}
			r.cache[key] = e
			r.mu.Unlock()
			e.stats, e.perCore, e.sampled, e.err = r.simulate(ctx, key, mix, dp, opt)
			if e.err != nil {
				r.mu.Lock()
				delete(r.cache, key)
				r.mu.Unlock()
			}
			close(e.done)
			return e.stats, e.perCore, e.sampled, e.err
		}
		r.mu.Unlock()
		select {
		case <-e.done:
			if isCancellation(e.err) && ctx.Err() == nil {
				continue // the leader was cancelled, we weren't: retry
			}
			return e.stats, e.perCore, e.sampled, e.err
		case <-ctx.Done():
			return nil, nil, nil, ctx.Err()
		}
	}
}

func isCancellation(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// ProgressEvent is the structured form of one completed simulation cell —
// the runner's Progress line with its fields still separate, so the
// serving layer can serialize it (SSE, JSON logs) without re-parsing
// formatted text.
type ProgressEvent struct {
	Mix     string  `json:"mix"`
	Design  string  `json:"design"`
	IPC     float64 `json:"ipc"`
	BTBMPKI float64 `json:"btb_mpki"`
	L1IMPKI float64 `json:"l1i_mpki"`
}

// String formats the event exactly as Runner.Progress lines always read.
func (e ProgressEvent) String() string {
	return fmt.Sprintf("%-16s %-18s IPC=%.3f btbMPKI=%5.1f l1iMPKI=%5.1f",
		e.Mix, e.Design, e.IPC, e.BTBMPKI, e.L1IMPKI)
}

// simulate runs one cell uncached by the memo, consulting the durable
// store under storeKey (the cell key; empty when it has none) on either
// side when one is configured: a store hit returns the persisted result
// (emitting the same progress event a live run would), and a completed run
// is written back before its progress line is emitted — so an observer
// that has seen a cell reported knows the cell is durable. Cancellation
// reaches a started cell mid-run: the epoch engine polls ctx at every
// epoch barrier.
func (r *Runner) simulate(ctx context.Context, storeKey string, mix []*synth.Workload, dp core.DesignPoint, opt core.Options) (*frontend.Stats, []*frontend.Stats, *SampledReport, error) {
	if err := ctx.Err(); err != nil {
		return nil, nil, nil, err
	}
	haveKey := r.Store != nil && storeKey != ""
	if haveKey {
		if payload, hit := r.Store.Get(storeKey); hit {
			if e, ok := DecodeStoreEntry(payload); ok {
				r.progress(func() ProgressEvent {
					return ProgressEvent{
						Mix: MixName(mix), Design: dp.String(),
						IPC: e.Stats.IPC(), BTBMPKI: e.Stats.BTBMPKI(), L1IMPKI: e.Stats.L1IMPKI(),
					}
				})
				return e.Stats, e.PerCore, e.Sampled, nil
			}
		}
	}
	sys, err := core.NewMixSystem(mix, dp, opt)
	if err != nil {
		return nil, nil, nil, err
	}
	defer sys.Close()
	var st *frontend.Stats
	var perCore []*frontend.Stats
	var sampled *SampledReport
	if r.Sampling.Enabled() {
		var snapKey string
		if r.Store != nil {
			snapKey, _ = SnapshotStoreKey(r.Scale.Warmup, mix, "", dp, opt)
		}
		st, perCore, sampled, err = RunSampledSystem(ctx, sys, r.Scale.Warmup, r.Sampling, r.Store, snapKey)
	} else {
		st, err = sys.RunCtx(ctx, r.Scale.Warmup, r.Scale.Measure)
		if err == nil {
			perCore = sys.PerCoreSnapshot()
		}
	}
	if err != nil {
		return nil, nil, nil, err
	}
	if haveKey {
		if payload, err := EncodeStoreEntry(StoreEntry{
			Stats: st, PerCore: perCore, Sampled: sampled,
			OverheadMM2: sys.OverheadMM2, RelativeArea: sys.RelativeArea,
		}); err == nil {
			r.Store.Put(storeKey, payload) // best-effort: the result is in hand
		}
	}
	r.progress(func() ProgressEvent {
		return ProgressEvent{
			Mix: MixName(mix), Design: dp.String(),
			IPC: st.IPC(), BTBMPKI: st.BTBMPKI(), L1IMPKI: st.L1IMPKI(),
		}
	})
	return st, perCore, sampled, nil
}

// progress emits one serialized progress event to whichever callbacks are
// installed; the event is only built when at least one is.
func (r *Runner) progress(build func() ProgressEvent) {
	if r.Progress == nil && r.OnProgress == nil {
		return
	}
	r.progressMu.Lock()
	defer r.progressMu.Unlock()
	e := build()
	if r.OnProgress != nil {
		r.OnProgress(e)
	}
	if r.Progress != nil {
		r.Progress(e.String())
	}
}

// options returns the default options at the runner's scale.
func (r *Runner) options() core.Options {
	opt := core.DefaultOptions()
	opt.Cores = r.Scale.Cores
	opt.IntraWorkers = r.IntraWorkers
	opt.EpochBlocks = r.EpochBlocks
	return opt
}

// RunDefault runs a design point with default options.
func (r *Runner) RunDefault(w *synth.Workload, dp core.DesignPoint) (*frontend.Stats, error) {
	return r.Run(w, dp, r.options())
}
