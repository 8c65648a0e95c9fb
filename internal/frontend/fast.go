package frontend

import (
	"confluence/internal/btb"
	"confluence/internal/isa"
	"confluence/internal/trace"
)

// FFCounts tallies the probe outcomes of the functional fast-forward
// path. FastStep drives the L1-I and the BTB with the exact lookup
// sequence detailed simulation would issue, so these counts are the
// full-coverage complement to the measurement windows' Stats: for a core
// with no prefetcher wired, the miss events on the two paths are
// identical event for event (contents evolve purely from the demand
// stream), making the combined window+gap miss counts exact rather than
// sampled. They live outside Stats — fast-forward moves no measurement
// counter — and accumulate monotonically; consumers take deltas.
type FFCounts struct {
	Instructions    uint64 `json:"instructions"`
	L1IAccesses     uint64 `json:"l1i_accesses"`
	L1IMisses       uint64 `json:"l1i_misses"`
	BTBTakenLookups uint64 `json:"btb_taken_lookups"`
	BTBMisses       uint64 `json:"btb_misses"`
}

// Add accumulates b into a.
func (a *FFCounts) Add(b *FFCounts) {
	a.Instructions += b.Instructions
	a.L1IAccesses += b.L1IAccesses
	a.L1IMisses += b.L1IMisses
	a.BTBTakenLookups += b.BTBTakenLookups
	a.BTBMisses += b.BTBMisses
}

// Sub subtracts b from a (delta of two monotone snapshots).
func (a *FFCounts) Sub(b *FFCounts) {
	a.Instructions -= b.Instructions
	a.L1IAccesses -= b.L1IAccesses
	a.L1IMisses -= b.L1IMisses
	a.BTBTakenLookups -= b.BTBTakenLookups
	a.BTBMisses -= b.BTBMisses
}

// FFCounts returns the core's cumulative fast-forward probe tallies.
func (c *Core) FFCounts() FFCounts { return c.ffCt }

// SharedOp is one cross-core write FastStep deferred into a SharedLog:
// an LLC warm of block address Key or, with Record set, a history record
// of block key Key.
type SharedOp struct {
	Ord    uint32 // ordinal of the record whose step issued the op
	Record bool
	Key    uint64
}

// SharedLog collects the cross-core writes of a core's fast-forward so
// the CMP engine can step cores one at a time and replay the writes in
// round-robin order afterwards (see package cmp). FastStep never reads
// the structures it logs writes to, so deferring the writes changes
// nothing but when they land. The caller sets Ord before each FastStep.
type SharedLog struct {
	Ord uint32
	Ops []SharedOp
	// History routes history records into the log as well; it is set
	// when another core records into the same history. A history only
	// this core records can take its writes directly: nothing reads it
	// during fast-forward, and its own order is kept.
	History bool
}

// SetSharedLog routes FastStep's cross-core writes into l; nil restores
// direct writes. Step ignores the log.
func (c *Core) SetSharedLog(l *SharedLog) { c.ffLog = l }

// ApplyShared performs one logged write against the shared structures.
func (c *Core) ApplyShared(op *SharedOp) {
	if op.Record {
		c.cfg.Recorder.Record(op.Key)
	} else {
		c.cfg.Hier.Warm(isa.Addr(op.Key))
	}
}

// FastStep advances one executed basic block through the functional
// fast-forward path: architectural and history-relevant state evolves —
// branch predictor tables, RAS, ITC, BTB contents, L1-I and LLC
// contents, and the SHIFT stream history — while timing (stall and
// penalty accounting, prefetcher run-ahead, MSHR tracking) is skipped
// entirely. No Stats counter moves; the engine tracks fast-forwarded
// progress itself. Apart from a shared-store BTB's lookups (PhantomBTB),
// the only shared state it touches — the LLC and a shared history — is
// written, never read, and with a SharedLog set those writes are deferred
// into it.
//
// The structure deliberately mirrors Step stage for stage (materialize
// ready fills, predict + resolve, per-block access, cycle advance) so
// the two walk identical state-update sequences; when Step's order
// changes, change this in lockstep. The cycle clock still advances by
// the issue + backend component of Step's charge — structures coupled
// to time (PhantomBTB's in-flight group fills) must keep maturing at a
// rate comparable to detailed simulation, and the backend component is
// pure workload calibration, so the clock stays design-independent
// enough for snapshots to be shared across design points.
func (c *Core) FastStep(rec *trace.Record) {
	now := c.cycle
	c.ffCt.Instructions += uint64(rec.N)

	first := isa.BlockOf(rec.Start)
	last := first
	if rec.N > 1 {
		last = isa.BlockOf(rec.Start + isa.Addr((rec.N-1)*isa.InstrBytes))
	}

	// Materialize fills that completed before this block's fetch (entries
	// left in flight by a preceding detailed window).
	if !c.cfg.PerfectL1I {
		for b := first; b <= last; b += isa.BlockBytes {
			if c.inflight.TakeIfReady(blockKey(b), now) {
				c.fillQuiet(now, b, false)
			}
		}
	}

	if br := rec.Br; br.Kind.IsBranch() {
		c.fastPredict(now, rec)
		if !c.cfg.PerfectBTB {
			c.cfg.BTB.Resolve(now, rec.Start, rec.N, br)
		}
	}

	if !c.cfg.PerfectL1I {
		for b := first; b <= last; b += isa.BlockBytes {
			key := blockKey(b)
			c.ffCt.L1IAccesses++
			if !c.l1i.Lookup(key) {
				if ready, ok := c.inflight.Take(key); ok {
					// Same effective-miss rule as access(): a fill still at
					// least half an LLC latency away failed to hide the miss.
					if ready-now >= c.halfLLCLat {
						c.ffCt.L1IMisses++
					}
					c.fillQuiet(now, b, false)
				} else {
					c.ffCt.L1IMisses++
					// Functional LLC touch: contents and replacement state
					// evolve as under a demand access, no latency charged.
					if l := c.ffLog; l != nil {
						l.Ops = append(l.Ops, SharedOp{Ord: l.Ord, Key: uint64(b | c.asBase)})
					} else {
						c.cfg.Hier.Warm(b | c.asBase)
					}
					c.fillQuiet(now, b, true)
				}
			}
			if c.cfg.Recorder != nil {
				if !c.hasLast || key != c.lastBlock {
					if l := c.ffLog; l != nil && l.History {
						l.Ops = append(l.Ops, SharedOp{Ord: l.Ord, Record: true, Key: key | c.keyTag})
					} else {
						c.cfg.Recorder.Record(key | c.keyTag)
					}
					c.lastBlock = key
					c.hasLast = true
				}
			}
		}
	}

	var issue float64
	if uint(rec.N) < uint(len(c.issueTab)) {
		issue = c.issueTab[rec.N]
	} else {
		issue = float64(rec.N) / c.cfg.IssueWidth
	}
	if issue < 1 {
		issue = 1
	}
	c.cycle += issue + float64(rec.N)*c.cfg.BackendCPI
}

// fastPredict drives the branch predictors and the BTB for the block's
// terminating branch with the exact training calls predict makes —
// hybrid PredictAndUpdate, RAS push/pop, ITC predict/update, BTB lookup
// — minus all penalty and counter accounting. Kept separate from
// predict because the two share no output: predict's value is the
// penalty math this path exists to skip.
func (c *Core) fastPredict(now float64, rec *trace.Record) {
	br := rec.Br
	res := btb.Result{Hit: true}
	if !c.cfg.PerfectBTB {
		res = c.cfg.BTB.Lookup(now, rec.Start, br.PC)
	}
	if br.Taken {
		c.ffCt.BTBTakenLookups++
		if !res.Hit {
			c.ffCt.BTBMisses++
		}
	}
	switch br.Kind {
	case isa.BrCond:
		c.hybrid.PredictAndUpdate(br.PC, br.Taken)
	case isa.BrUncond, isa.BrCall:
		if br.Kind == isa.BrCall {
			c.ras.Push(br.PC + isa.InstrBytes)
		}
	case isa.BrRet:
		c.ras.Pop()
	case isa.BrIndirect, isa.BrIndCall:
		c.itc.Predict(br.PC)
		c.itc.Update(br.PC, br.Target)
		if br.Kind == isa.BrIndCall {
			c.ras.Push(br.PC + isa.InstrBytes)
		}
	}
}
