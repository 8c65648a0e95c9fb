// Package cmp runs a multi-core simulation: N cores executing the same
// server workload (distinct request interleavings), sharing the LLC and any
// virtualized predictor metadata, in the round-robin trace-interleaved
// style of the paper's methodology (§4.1).
//
// The cores' instruction streams come from trace.Sources, so the same
// timing model replays live synthetic executors, captured trace files, or
// recorded in-memory streams interchangeably.
//
// # Round-robin stepping
//
// Detailed simulation steps the cores serially, one basic block per core
// per turn, in core order. Each core's records are decoded ahead in
// batches (decodeBatch); sources take no feedback from the timing model,
// so the batching is invisible to the simulation, and a finite source's
// error surfaces only when its core actually needs another record.
//
// # Core-major fast-forward
//
// Functional fast-forward (System.FastForward) needs no round-robin
// interleaving: Core.FastStep reads no state another core writes, so each
// core can step through a whole segment of the phase on its own. Its two
// cross-core writes — the LLC warm of an L1-I miss, and a SHIFT history
// record when more than one core records into that history — go into a
// per-core frontend.SharedLog tagged with the ordinal of the record that
// issued them, and at the segment's end the logs merge in (ordinal, core,
// issue) order. That is the round-robin loop's own order, so LLC and
// history contents, warm snapshots and every statistic are bit-identical to
// stepping round-robin. A core's BTB, predictors and L1-I then stay hot in
// the host's caches for a segment instead of rotating with every other core
// at each basic block. The engine chooses the loop from the wired designs:
// a PhantomBTB reads its shared group store on every lookup, so systems
// with one keep the round-robin loop.
package cmp

import (
	"context"
	"fmt"
	"io"

	"confluence/internal/frontend"
	"confluence/internal/mem"
	"confluence/internal/trace"
)

// System is an assembled CMP: per-core frontends fed by per-core record
// sources over a shared memory hierarchy.
type System struct {
	Cores   []*frontend.Core
	Sources []trace.Source
	Hier    *mem.Hierarchy

	eng *engine // built lazily at first Run; persists across phases
}

// New wires a system; len(cores) must equal len(srcs).
func New(cores []*frontend.Core, srcs []trace.Source, hier *mem.Hierarchy) (*System, error) {
	if len(cores) == 0 || len(cores) != len(srcs) {
		return nil, fmt.Errorf("cmp: %d cores vs %d sources", len(cores), len(srcs))
	}
	return &System{Cores: cores, Sources: srcs, Hier: hier}, nil
}

// Run simulates warmup+measure instructions per core (round-robin, one
// basic block per core per turn). Warmup populates caches, predictors, and
// shared history with statistics frozen; measurement counters are reset at
// the boundary. It returns the aggregate measured stats. A source failure
// (a corrupt or exhausted finite trace) aborts the run.
func (s *System) Run(warmup, measure uint64) (*frontend.Stats, error) {
	return s.RunCtx(context.Background(), warmup, measure)
}

// RunCtx is Run honoring mid-run cancellation: the engine polls ctx once
// per decode batch (at most decodeBatch basic blocks per core), so a
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

// phase advances every core by approximately n instructions.
func (s *System) phase(ctx context.Context, n uint64) error {
	if n == 0 {
		return nil
	}
	return s.eng.phase(ctx, n)
}

// decodeBatch is the per-core record decode-ahead depth: one NextBatch call
// per decodeBatch basic blocks amortizes the Source interface dispatch (and
// the file reader's per-record bounds checks). Sources take no feedback
// from the timing model, so decode-ahead is invisible to the simulation.
const decodeBatch = 64

// coreQ is one core's decoded-record queue. buf[head:head+n] are the
// records decoded but not yet stepped; they persist across phases (warmup →
// measure), so decode-ahead never perturbs where a phase boundary falls in
// the stream. err is a deferred source error: a finite source's io.EOF (or
// a corruption) is surfaced only if the core still needs records, so a
// source failure beyond the phase target is never observed.
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

// engine is the phase scheduler for one System (see the package comment
// for the model).
type engine struct {
	s *System

	// ff switches phases to the functional fast-forward path: cores
	// advance through Core.FastStep instead of Core.Step. See
	// System.FastForward.
	ff bool

	q      []coreQ
	active []int // compacted list of cores still below target

	// prog tracks per-core phase progress. instr and target are kept
	// together with recs in one small struct so the per-record
	// bookkeeping in the step loops is a single indexed access on one
	// cache line, not three.
	prog []coreProg

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

// newEngine builds the engine for s.
func newEngine(s *System) *engine {
	e := &engine{s: s}
	e.q = make([]coreQ, len(s.Cores))
	for i := range e.q {
		e.q[i].buf = make([]trace.Record, decodeBatch)
	}
	e.active = make([]int, 0, len(s.Cores))
	e.prog = make([]coreProg, len(s.Cores))
	e.initCoreMajor()
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
	return e.phaseRoundRobin(ctx)
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

// phaseRoundRobin is the round-robin loop: it tops up every active core's
// decode queue, then steps the cores one basic block per turn in core
// order until the shortest queue empties, and repeats.
func (e *engine) phaseRoundRobin(ctx context.Context) error {
	for len(e.active) > 0 {
		if err := ctx.Err(); err != nil {
			return err
		}
		for _, c := range e.active {
			e.refill(c)
		}
		// A batch's round count is the shortest active queue: every round
		// steps each remaining core exactly once, in core order.
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
