// Package cmp runs a multi-core simulation: N cores executing the same
// server workload (distinct request interleavings), sharing the LLC and any
// virtualized predictor metadata, in the round-robin trace-interleaved
// style of the paper's methodology (§4.1).
//
// The cores' instruction streams come from trace.Sources, so the same
// timing model replays live synthetic executors, captured trace files, or
// recorded in-memory streams interchangeably.
//
// # Bound-weave epochs
//
// Stepping is organized in epochs with two phases, in the style of ZSim's
// bound-weave parallelism. In the bound phase, each core independently
// advances against its private structures — L1-I, BTB, BPU, prefetcher
// window — with every shared-structure operation (LLC lookups/fills, SHIFT
// history records, PhantomBTB group-store traffic) answered from the
// epoch-start snapshot and buffered into a per-core ordered log. At the
// epoch barrier (the weave), the logs are applied in canonical core order,
// so results are deterministic for any worker count by construction.
//
// K (SetIntra's epochBlocks) is the epoch depth in basic blocks per core:
//
//   - K=1 is the exact mode and the default: the weave executes the full
//     steps serially in the canonical round-robin order — exactly the
//     serial interleaving — while the bound phase is reduced to what is
//     provably timing-independent, batched record decode (trace.Source
//     streams take no feedback from the timing model). Results are
//     bit-identical to the serial simulator for any worker count.
//   - K>1 is a documented approximation: cores advance up to K blocks
//     against shared state frozen at the epoch boundary, so cross-core
//     timing feedback (another core's LLC fill, a generator's history
//     records) arrives one epoch late. Within an epoch the apply order is
//     canonical, so the mode is still bit-deterministic across worker
//     counts — just not bit-identical to K=1.
//
// # Core-major fast-forward
//
// Functional fast-forward (System.FastForward) is exact for any K and
// needs no frozen snapshot at all: Core.FastStep reads no state another
// core writes, so each core can step through a whole segment of the phase
// on its own. Its two cross-core writes — the LLC warm of an L1-I miss,
// and a SHIFT history record when more than one core records into that
// history — go into a per-core frontend.SharedLog tagged with the ordinal
// of the record that issued them, and at the segment's end the logs merge
// in (ordinal, core, issue) order. That is the round-robin loop's own
// order, so LLC and history contents, warm snapshots and every statistic
// are bit-identical to stepping round-robin. A core's BTB, predictors and
// L1-I then stay hot in the host's caches for a segment instead of
// rotating with every other core at each basic block. The engine chooses
// the loop from the wired designs: a PhantomBTB reads its shared group
// store on every lookup, so systems with one keep the round-robin loop.
package cmp

import (
	"context"
	"fmt"
	"io"

	"confluence/internal/frontend"
	"confluence/internal/mem"
	"confluence/internal/shift"
	"confluence/internal/trace"
)

// System is an assembled CMP: per-core frontends fed by per-core record
// sources over a shared memory hierarchy.
type System struct {
	Cores   []*frontend.Core
	Sources []trace.Source
	Hier    *mem.Hierarchy

	intraWorkers int
	epochBlocks  int
	eng          *engine // built lazily at first Run; persists across phases
}

// New wires a system; len(cores) must equal len(srcs).
func New(cores []*frontend.Core, srcs []trace.Source, hier *mem.Hierarchy) (*System, error) {
	if len(cores) == 0 || len(cores) != len(srcs) {
		return nil, fmt.Errorf("cmp: %d cores vs %d sources", len(cores), len(srcs))
	}
	return &System{Cores: cores, Sources: srcs, Hier: hier}, nil
}

// SetIntra configures in-run bound-weave parallelism: workers bounds the
// goroutines stepping cores inside this one simulation, epochBlocks is K,
// the per-core epoch depth (see the package comment). Zero values mean 1.
// The defaults (1, 1) are the exact serial simulator. SetIntra must be
// called before the first Run; once the epoch engine exists the
// configuration is frozen and later calls are ignored.
func (s *System) SetIntra(workers, epochBlocks int) {
	if s.eng != nil {
		return
	}
	s.intraWorkers = workers
	s.epochBlocks = epochBlocks
}

// Run simulates warmup+measure instructions per core (round-robin, one
// basic block per core per turn). Warmup populates caches, predictors, and
// shared history with statistics frozen; measurement counters are reset at
// the boundary. It returns the aggregate measured stats. A source failure
// (a corrupt or exhausted finite trace) aborts the run.
func (s *System) Run(warmup, measure uint64) (*frontend.Stats, error) {
	return s.RunCtx(context.Background(), warmup, measure)
}

// RunCtx is Run honoring mid-run cancellation: the epoch engine polls ctx
// at every epoch barrier (a few dozen basic blocks per core at most), so a
// cancelled simulation returns ctx.Err() promptly instead of running to
// its instruction target. The poll reads no simulated state and feeds
// nothing back into the timing model, so a run that completes is
// bit-identical whether or not a context is attached.
func (s *System) RunCtx(ctx context.Context, warmup, measure uint64) (*frontend.Stats, error) {
	if s.eng == nil {
		s.eng = newEngine(s)
	}
	if err := s.phase(ctx, warmup); err != nil {
		return nil, err
	}
	for _, c := range s.Cores {
		c.ResetStats()
	}
	if s.Hier != nil {
		s.Hier.ResetStats()
	}
	if err := s.phase(ctx, measure); err != nil {
		return nil, err
	}

	var agg frontend.Stats
	for _, c := range s.Cores {
		agg.Add(c.Stats())
	}
	return &agg, nil
}

// phase advances every core by approximately n instructions through the
// epoch engine.
func (s *System) phase(ctx context.Context, n uint64) error {
	if n == 0 {
		return nil
	}
	return s.eng.phase(ctx, n)
}

// decodeBatch is the per-core record decode-ahead depth: one NextBatch call
// per decodeBatch basic blocks amortizes the Source interface dispatch (and
// the file reader's per-record bounds checks) even in serial mode. Sources
// take no feedback from the timing model, so decode-ahead is invisible to
// the simulation.
const decodeBatch = 64

// coreQ is one core's decoded-record queue. buf[head:head+n] are the
// records decoded but not yet stepped; they persist across phases (warmup →
// measure), so decode-ahead never perturbs where a phase boundary falls in
// the stream. err is a deferred source error: a finite source's io.EOF (or
// a corruption) is surfaced only if the core still needs records, matching
// the serial semantics where a source failure beyond the phase target is
// never observed.
type coreQ struct {
	buf     []trace.Record
	head, n int
	err     error
}

// coreProg is one core's phase-progress record. instr counts instructions
// advanced across all phases (detailed and fast-forward) since engine
// creation; phase targets are expressed against it, decoupled from
// Stats().Instructions because fast-forward moves no stats counters. recs
// counts stream records consumed (stepped or skipped) — the stream
// position a warm-up snapshot records so a restored run can reposition its
// sources (see SkipRecords).
type coreProg struct {
	instr  uint64
	recs   uint64
	target uint64
}

// weaveDesign is implemented by BTB designs backed by cross-core shared
// state (PhantomBTB's group store): SetDeferred(true) switches them to
// frozen reads plus logged writes for bound phases, ApplyLog replays a
// core's log at the weave barrier.
type weaveDesign interface {
	SetDeferred(bool)
	ApplyLog()
}

// engine is the bound-weave epoch scheduler for one System (see the
// package comment for the model).
type engine struct {
	s       *System
	workers int
	k       int // epoch depth in blocks; 1 = exact mode

	// ff switches phases to the functional fast-forward path: cores
	// advance through Core.FastStep instead of Core.Step, always under
	// the exact (serial-weave) scheduler regardless of K — FastStep's
	// shared-state writes apply directly, in canonical order, so no
	// deferral is needed and results are worker-count independent by the
	// same argument as K=1. See System.FastForward.
	ff bool

	q      []coreQ
	active []int // compacted list of cores still below target

	// prog tracks per-core phase progress. instr and target are kept
	// together with recs in one small struct so the per-record
	// bookkeeping in the step loops is a single indexed access on one
	// cache line, not three.
	prog []coreProg

	// K>1 deferral plumbing, indexed by core (nil entries where unused).
	ports  []*mem.BoundPort
	recs   []*shift.Deferred
	weaves []weaveDesign

	// coreMajor selects the core-major fast-forward loop (sample.go):
	// true unless a core's BTB reads cross-core shared state. logs holds
	// each core's deferred shared writes, dry the segment ordinal at
	// which a core's source ran dry (-1 while it has not), cur the merge
	// cursors.
	coreMajor bool
	logs      []frontend.SharedLog
	dry       []int
	cur       []int
}

// newEngine builds the engine and, for K>1, rewires every core's shared
// touch points (memory port, history recorder, shared-store BTB) to their
// probe-and-log forms.
func newEngine(s *System) *engine {
	w, k := s.intraWorkers, s.epochBlocks
	if w < 1 {
		w = 1
	}
	if k < 1 {
		k = 1
	}
	e := &engine{s: s, workers: w, k: k}
	qcap := decodeBatch
	if k > qcap {
		qcap = k
	}
	e.q = make([]coreQ, len(s.Cores))
	for i := range e.q {
		e.q[i].buf = make([]trace.Record, qcap)
	}
	e.active = make([]int, 0, len(s.Cores))
	e.prog = make([]coreProg, len(s.Cores))
	e.initCoreMajor()
	if k > 1 {
		e.ports = make([]*mem.BoundPort, len(s.Cores))
		e.recs = make([]*shift.Deferred, len(s.Cores))
		e.weaves = make([]weaveDesign, len(s.Cores))
		for i, c := range s.Cores {
			if s.Hier != nil {
				e.ports[i] = mem.NewBoundPort(s.Hier)
				c.SetMemPort(e.ports[i])
			}
			if r := c.Recorder(); r != nil {
				d := &shift.Deferred{Target: r}
				c.SetRecorder(d)
				e.recs[i] = d
			}
			if wd, ok := c.BTB().(weaveDesign); ok {
				wd.SetDeferred(true)
				e.weaves[i] = wd
			}
		}
	}
	return e
}

// phase advances every core by approximately n instructions.
func (e *engine) phase(ctx context.Context, n uint64) error {
	e.active = e.active[:0]
	for i := range e.s.Cores {
		e.prog[i].target = e.prog[i].instr + n
		e.active = append(e.active, i)
	}
	if e.ff && e.coreMajor {
		return e.phaseCoreMajor(ctx)
	}
	if e.k == 1 || e.ff {
		return e.phaseExact(ctx)
	}
	return e.phaseBound(ctx)
}

// refill tops core c's queue up from its source. One NextBatch call
// suffices: the batch only comes back short on an error, which is deferred
// in q.err until (unless) the core actually runs dry.
func (e *engine) refill(c int) {
	q := &e.q[c]
	if q.err != nil || q.n == len(q.buf) {
		return
	}
	if q.head > 0 {
		copy(q.buf, q.buf[q.head:q.head+q.n])
		q.head = 0
	}
	k, err := e.s.Sources[c].NextBatch(q.buf[q.n:])
	q.n += k
	q.err = err
}

// dryErr returns the error to surface for a core that is below target with
// an empty queue.
func (e *engine) dryErr(c int) error {
	err := e.q[c].err
	if err == nil {
		err = io.ErrUnexpectedEOF // cannot happen: refill either fills or errors
	}
	return fmt.Errorf("cmp: core %d source: %w", c, err)
}

// phaseExact is the K=1 engine: the bound phase batch-decodes every active
// core's stream in parallel (the only work with no shared-state
// dependence), and the weave executes the full steps serially in canonical
// round-robin order — bit-identical to the serial simulator by
// construction, for any worker count.
func (e *engine) phaseExact(ctx context.Context) error {
	p := e.startPool(e.refill)
	defer p.stop()
	for len(e.active) > 0 {
		if err := ctx.Err(); err != nil {
			return err
		}
		e.barrier(p, e.refill)
		// An epoch's round count is the shortest active queue: every round
		// steps each remaining core exactly once, in core order, exactly as
		// the serial loop interleaves them.
		rounds := -1
		for _, c := range e.active {
			if e.q[c].n < rounds || rounds < 0 {
				rounds = e.q[c].n
			}
		}
		if rounds == 0 {
			for _, c := range e.active {
				if e.q[c].n == 0 {
					return e.dryErr(c)
				}
			}
		}
		// Slice headers and the mode flag are loop-invariant, but the
		// compiler cannot prove that across the Step call — hoisting them
		// into locals keeps the detailed inner loop as tight as it was
		// before the fast-forward path and progress bookkeeping existed.
		ff, cores, qs, prog := e.ff, e.s.Cores, e.q, e.prog
		for r := 0; r < rounds && len(e.active) > 0; r++ {
			w := 0
			for _, c := range e.active {
				q := &qs[c]
				rec := &q.buf[q.head]
				if ff {
					cores[c].FastStep(rec)
				} else {
					cores[c].Step(rec)
				}
				q.head++
				q.n--
				pg := &prog[c]
				pg.instr += uint64(rec.N)
				pg.recs++
				if pg.instr < pg.target {
					e.active[w] = c
					w++
				}
			}
			e.active = e.active[:w]
		}
	}
	return nil
}

// phaseBound is the K>1 engine: the bound phase steps each active core up
// to K blocks against frozen shared state (logging shared ops), the weave
// applies the logs in canonical core order and compacts the active list.
func (e *engine) phaseBound(ctx context.Context) error {
	p := e.startPool(e.boundStep)
	defer p.stop()
	for len(e.active) > 0 {
		if err := ctx.Err(); err != nil {
			return err
		}
		e.barrier(p, e.boundStep)
		var firstDry = -1
		w := 0
		for _, c := range e.active {
			// Apply in canonical order even for cores retiring this epoch:
			// their final ops are part of the epoch's shared-state evolution.
			if p := e.ports[c]; p != nil {
				p.Apply()
			}
			if d := e.recs[c]; d != nil {
				d.Apply()
			}
			if wd := e.weaves[c]; wd != nil {
				wd.ApplyLog()
			}
			if e.prog[c].instr >= e.prog[c].target {
				continue
			}
			if e.q[c].n == 0 && e.q[c].err != nil && firstDry < 0 {
				firstDry = c
			}
			e.active[w] = c
			w++
		}
		e.active = e.active[:w]
		if firstDry >= 0 {
			return e.dryErr(firstDry)
		}
	}
	return nil
}

// boundStep is one core's bound phase: top up the decode queue, then step
// up to K blocks. All shared reads answer from the epoch-start snapshot;
// all shared writes land in this core's logs. Runs concurrently across
// cores — it touches only core-private state, this core's queue/logs, and
// frozen shared structures.
func (e *engine) boundStep(c int) {
	e.refill(c)
	q := &e.q[c]
	core := e.s.Cores[c]
	pg := &e.prog[c]
	for i := 0; i < e.k; i++ {
		if q.n == 0 || pg.instr >= pg.target {
			return
		}
		rec := &q.buf[q.head]
		core.Step(rec)
		pg.instr += uint64(rec.N)
		pg.recs++
		q.head++
		q.n--
	}
}

// pool runs bound-phase jobs on persistent worker goroutines for the
// duration of one phase (workers idle between epoch barriers instead of
// respawning — epochs can be as small as K blocks per core). Each core is
// handed to exactly one worker per epoch, and the barrier orders every job
// before the weave reads its results, so jobs need no locking.
type pool struct {
	jobs chan int
	done chan struct{}
}

// startPool launches min(workers, cores) workers running job, or returns
// nil when the engine is single-threaded (callers then run jobs inline).
func (e *engine) startPool(job func(core int)) *pool {
	n := len(e.s.Cores)
	w := e.workers
	if w > n {
		w = n
	}
	if w <= 1 {
		return nil
	}
	p := &pool{jobs: make(chan int, n), done: make(chan struct{}, n)}
	for i := 0; i < w; i++ {
		//confluence:allow baregoroutine the epoch engine's bound phase: per-core op logs are applied at the weave barrier in canonical core order, so results are independent of goroutine scheduling
		go func() {
			for c := range p.jobs {
				job(c)
				p.done <- struct{}{}
			}
		}()
	}
	return p
}

// barrier runs one epoch's jobs for the given cores and waits for all of
// them; inline on the calling goroutine when the pool is nil.
func (e *engine) barrier(p *pool, job func(core int)) {
	if p == nil {
		for _, c := range e.active {
			job(c)
		}
		return
	}
	for _, c := range e.active {
		p.jobs <- c
	}
	for range e.active {
		<-p.done
	}
}

// stop terminates the pool's workers; safe on a nil pool.
func (p *pool) stop() {
	if p != nil {
		close(p.jobs)
	}
}

// Close releases sources holding external resources (trace files); the
// synthetic executors' Close-less sources are unaffected.
func (s *System) Close() error {
	var first error
	for _, src := range s.Sources {
		if c, ok := src.(io.Closer); ok {
			if err := c.Close(); err != nil && first == nil {
				first = err
			}
		}
	}
	return first
}

// PerCoreStats returns each core's measured stats (diagnostics). The
// pointers alias the live cores; use PerCoreSnapshot for results that
// outlive the system.
func (s *System) PerCoreStats() []*frontend.Stats {
	out := make([]*frontend.Stats, len(s.Cores))
	for i, c := range s.Cores {
		out[i] = c.Stats()
	}
	return out
}

// PerCoreSnapshot returns a copy of each core's measured stats, detached
// from the live cores (safe to retain after Close). The aggregate Run
// returns is the in-order sum of exactly these snapshots.
func (s *System) PerCoreSnapshot() []*frontend.Stats {
	out := make([]*frontend.Stats, len(s.Cores))
	for i, c := range s.Cores {
		st := *c.Stats()
		out[i] = &st
	}
	return out
}
