// Package frontend is the per-core timing model: it consumes a core's
// retire-order basic-block stream and charges cycles for issue, backend
// data stalls, BTB bubbles, misfetches, mispredict resolutions, and exposed
// L1-I miss latency, while driving the configured BTB design and
// instruction prefetcher (DESIGN.md §5 documents the model and its
// simplifications).
package frontend

import (
	"confluence/internal/bpu"
	"confluence/internal/btb"
	"confluence/internal/cache"
	"confluence/internal/isa"
	"confluence/internal/mem"
	"confluence/internal/prefetch"
	"confluence/internal/program"
	"confluence/internal/trace"
)

// HistoryRecorder receives the L1-I block access stream (consecutive
// duplicates already collapsed); SHIFT's shared history implements it on
// the generator core.
type HistoryRecorder interface {
	Record(blockNumber uint64)
}

// MemPort is the core's window onto the shared memory hierarchy: demand
// misses and prefetch schedules obtain their fill latency through it. The
// default is the wired *mem.Hierarchy directly; the CMP's epoch engine
// swaps in a probe-and-log port (mem.BoundPort) for bound phases, so cores
// can step concurrently against frozen shared state while the real LLC
// mutations are replayed in canonical order at the weave barrier.
type MemPort interface {
	AccessLatency(core int, block isa.Addr) (cycles int, llcHit bool)
}

// Config assembles one core's frontend.
type Config struct {
	CoreID int

	// ASID is the core's address-space slot under workload consolidation
	// (Config.Mix): keys entering structures shared across cores — the LLC
	// and the SHIFT history — are tagged with isa.ASIDBase(ASID) so distinct
	// programs compete on capacity instead of aliasing at identical virtual
	// addresses. Zero (every homogeneous run) is the identity.
	ASID int

	// Pipeline parameters (defaults per the paper's Table 1 core).
	IssueWidth      float64 // 3-way
	MisfetchPenalty float64 // BTB-miss redirect at decode: 4 cycles
	ResolvePenalty  float64 // execute-time redirect: ~14 cycles (15-stage)
	// PredecodePenalty is added to demand-fill latency when the frontend
	// must scan a block before insertion (Confluence, §3.2).
	PredecodePenalty float64

	// L1-I geometry (paper: 32KB, 4-way, 64B blocks).
	L1ISets, L1IWays int

	// Direction/target predictors (paper: 16K-entry hybrid, 64-entry RAS,
	// 1K-entry ITC).
	PredictorEntries int
	RASEntries       int
	ITCEntries       int

	// Idealizations (the paper's "Ideal" frontend).
	PerfectL1I bool
	PerfectBTB bool

	// Workload timing calibration.
	BackendCPI float64
	Exposure   float64

	// Wiring.
	BTB        btb.Design          // nil only with PerfectBTB
	Prefetcher prefetch.Prefetcher // nil means none
	Hier       *mem.Hierarchy      // shared; nil only with PerfectL1I
	Prog       *program.Program    // for block predecode on fills
	Recorder   HistoryRecorder     // non-nil on SHIFT's generator core
}

// DefaultConfig returns the paper's core parameters with the wiring left
// empty.
func DefaultConfig() Config {
	return Config{
		IssueWidth:       3,
		MisfetchPenalty:  4,
		ResolvePenalty:   14,
		L1ISets:          128, // 32KB / 64B / 4 ways
		L1IWays:          4,
		PredictorEntries: 16 << 10,
		RASEntries:       64,
		ITCEntries:       1 << 10,
		BackendCPI:       1.0,
		Exposure:         0.42,
	}
}

// Core is one core's frontend state.
type Core struct {
	cfg Config

	hybrid *bpu.Hybrid
	ras    *bpu.RAS
	itc    *bpu.ITC

	l1i      *cache.Cache
	inflight *cache.InFlight

	cycle     float64
	st        Stats
	lastBlock uint64 // history dedup
	hasLast   bool
	steps     uint64 // for periodic in-flight table scrubbing

	// ffCt holds the fast-forward probe tallies (fast.go); not part of st,
	// and kept out of the hot cluster above — only FastStep touches it.
	ffCt FFCounts
	// ffLog, when non-nil, defers FastStep's cross-core writes (fast.go).
	ffLog *SharedLog

	// Address-space tag forms (from cfg.ASID): asBase ORs into addresses
	// crossing into the shared LLC, keyTag into block keys recorded to the
	// shared history. Both are zero outside heterogeneous mixes.
	asBase isa.Addr
	keyTag uint64

	// halfLLCLat caches half the average LLC latency: an in-flight fill
	// with at least this much residual wait counts as an effective miss.
	halfLLCLat float64

	// reqs is the reusable prefetch-request scratch buffer threaded through
	// OnAccess/OnRegion (append-into-dst), so the per-instruction path
	// issues prefetches without allocating. Requests are consumed by
	// schedule before the next prefetcher call, so one buffer suffices.
	reqs []prefetch.Request

	// issueTab[n] = float64(n)/IssueWidth for small n, precomputed with the
	// same division so results are bit-identical — saves an fdiv per block
	// (basic blocks are short; larger n falls back to dividing).
	issueTab [64]float64

	// port, when non-nil, overrides cfg.Hier for shared-memory latencies
	// (bound phases). Nil keeps the direct, devirtualized hierarchy call on
	// the hot path.
	port MemPort
}

// NewCore builds a core from its config.
func NewCore(cfg Config) *Core {
	c := &Core{
		cfg:    cfg,
		hybrid: bpu.NewHybrid(cfg.PredictorEntries),
		ras:    bpu.NewRAS(cfg.RASEntries),
		itc:    bpu.NewITC(cfg.ITCEntries),
		reqs:   make([]prefetch.Request, 0, 32),
		asBase: isa.ASIDBase(cfg.ASID),
	}
	c.keyTag = uint64(c.asBase) >> isa.BlockShift
	if !cfg.PerfectL1I {
		c.l1i = cache.New(cfg.L1ISets, cfg.L1IWays)
		c.inflight = cache.NewInFlight()
		c.halfLLCLat = 0.5 * cfg.Hier.AvgLLCLatency(cfg.CoreID)
	}
	for n := range c.issueTab {
		c.issueTab[n] = float64(n) / cfg.IssueWidth
	}
	return c
}

// Stats returns the counters accumulated since the last ResetStats.
func (c *Core) Stats() *Stats { return &c.st }

// ResetStats zeroes the measurement counters at the warmup boundary;
// architectural state (caches, predictors, history) is preserved.
func (c *Core) ResetStats() {
	c.st = Stats{}
	c.hybrid.ResetStats()
	if c.l1i != nil {
		c.l1i.ResetStats()
	}
}

// Cycle returns the core's absolute cycle clock.
func (c *Core) Cycle() float64 { return c.cycle }

// L1I exposes the instruction cache (AirBTB synchronization tests).
func (c *Core) L1I() *cache.Cache { return c.l1i }

// Prefetcher exposes the wired prefetcher (diagnostics).
func (c *Core) Prefetcher() prefetch.Prefetcher { return c.cfg.Prefetcher }

// BTB exposes the wired BTB design (diagnostics).
func (c *Core) BTB() btb.Design { return c.cfg.BTB }

// Recorder returns the currently wired history recorder (nil on non-
// generator cores).
func (c *Core) Recorder() HistoryRecorder { return c.cfg.Recorder }

// SetRecorder replaces the history recorder — the epoch engine wraps a
// generator core's recorder in a deferring log for bound-weave runs.
func (c *Core) SetRecorder(r HistoryRecorder) { c.cfg.Recorder = r }

// SetMemPort routes shared-memory latencies through p instead of the wired
// hierarchy; nil restores the direct path. Swapping the port changes where
// LLC state lives in time (probe-and-log vs immediate), not the latency
// function, so a port answering from live state is bit-identical to nil.
func (c *Core) SetMemPort(p MemPort) { c.port = p }

// fillLatency returns the shared-hierarchy latency for a block access
// (demand or prefetch), through the bound port when one is installed.
func (c *Core) fillLatency(b isa.Addr) int {
	if c.port != nil {
		lat, _ := c.port.AccessLatency(c.cfg.CoreID, b)
		return lat
	}
	lat, _ := c.cfg.Hier.AccessLatency(c.cfg.CoreID, b)
	return lat
}

func blockKey(b isa.Addr) uint64 { return uint64(b) >> isa.BlockShift }

// Step processes one executed basic block.
func (c *Core) Step(rec *trace.Record) {
	now := c.cycle
	st := &c.st
	st.Records++
	st.Instructions += uint64(rec.N)
	if rec.ReqBoundary {
		st.Requests++
	}

	first := isa.BlockOf(rec.Start)
	last := first
	if rec.N > 1 {
		last = isa.BlockOf(rec.Start + isa.Addr((rec.N-1)*isa.InstrBytes))
	}

	// Materialize fills that completed before this block's fetch so the
	// BTB lookup below sees state Confluence would have installed already.
	if !c.cfg.PerfectL1I {
		for b := first; b <= last; b += isa.BlockBytes {
			if c.inflight.TakeIfReady(blockKey(b), now) {
				st.PrefUseful++
				c.fill(now, b, false)
			}
		}
	}

	var penalty float64
	redirect := false

	if br := rec.Br; br.Kind.IsBranch() {
		penalty, redirect = c.predict(now, rec)
		if !c.cfg.PerfectBTB {
			c.cfg.BTB.Resolve(now, rec.Start, rec.N, br)
		}
	}

	// BPU emits the fetch region; FDP banks its run-ahead from it.
	if pf := c.cfg.Prefetcher; pf != nil {
		c.reqs = pf.OnRegion(now, rec.Start, rec.N, c.reqs[:0])
		c.schedule(now, c.reqs)
	}

	var stall float64
	if !c.cfg.PerfectL1I {
		for b := first; b <= last; b += isa.BlockBytes {
			stall += c.access(now, b)
		}
	}

	// A redirect penalty for this block overlaps with waiting for the same
	// block's instructions to arrive: the misfetch is discovered while the
	// fill is in progress. Charge the larger of the two, not the sum.
	extra := stall
	if penalty > extra {
		extra = penalty
	}

	if redirect {
		if pf := c.cfg.Prefetcher; pf != nil {
			pf.Redirect(now + extra)
		}
	}

	var issue float64
	if uint(rec.N) < uint(len(c.issueTab)) {
		issue = c.issueTab[rec.N]
	} else {
		issue = float64(rec.N) / c.cfg.IssueWidth
	}
	if issue < 1 {
		issue = 1 // the BPU produces one fetch region per cycle
	}
	backend := float64(rec.N) * c.cfg.BackendCPI
	dt := issue + backend + extra
	c.cycle += dt
	st.Cycles += dt
	st.IssueCycles += issue
	st.BackendCycles += backend

	c.steps++
	if c.steps%(1<<14) == 0 && c.inflight != nil {
		c.scrub(now)
	}
}

// predict runs the BPU for the block's terminating branch, returning the
// penalty cycles and whether the pipeline redirected.
func (c *Core) predict(now float64, rec *trace.Record) (extra float64, redirect bool) {
	st := &c.st
	br := rec.Br

	var res btb.Result
	if c.cfg.PerfectBTB {
		res = btb.Result{Hit: true}
	} else {
		res = c.cfg.BTB.Lookup(now, rec.Start, br.PC)
	}
	extra += res.Bubble
	st.BubbleCycles += res.Bubble

	if br.Taken {
		st.TakenBranches++
		st.BTBTakenLookups++
		if !res.Hit {
			st.BTBMisses++
		}
	}

	// misfetch / resolveFlush outcomes, applied after the kind dispatch.
	// (Plain booleans instead of the previous closures: closures forced the
	// accumulators into addressable stack slots on the hottest branch path.)
	misfetch, resolve := false, false

	switch br.Kind {
	case isa.BrCond:
		st.CondBranches++
		_, correct := c.hybrid.PredictAndUpdate(br.PC, br.Taken)
		switch {
		case res.Hit && !correct:
			st.DirMispredicts++
			resolve = true
		case !res.Hit && br.Taken:
			// BTB miss: the BPU assumed sequential flow. Decode discovers
			// the branch; if the direction predictor agrees "taken" the
			// redirect costs the misfetch penalty, otherwise the branch
			// resolves at execute.
			if correct {
				misfetch = true
			} else {
				st.DirMispredicts++
				resolve = true
			}
		}
		// BTB miss + not taken: the sequential assumption was right.

	case isa.BrUncond, isa.BrCall:
		if !res.Hit {
			misfetch = true
		}
		if br.Kind == isa.BrCall {
			c.ras.Push(br.PC + isa.InstrBytes)
		}

	case isa.BrRet:
		target, ok := c.ras.Pop()
		rasOK := ok && target == br.Target
		switch {
		case !rasOK:
			st.RASMispredicts++
			resolve = true
		case !res.Hit:
			misfetch = true
		}

	case isa.BrIndirect, isa.BrIndCall:
		pt, ok := c.itc.Predict(br.PC)
		itcOK := ok && pt == br.Target
		c.itc.Update(br.PC, br.Target)
		switch {
		case !itcOK:
			st.ITCMispredicts++
			resolve = true
		case !res.Hit:
			misfetch = true
		}
		if br.Kind == isa.BrIndCall {
			c.ras.Push(br.PC + isa.InstrBytes)
		}
	}
	if misfetch {
		extra += c.cfg.MisfetchPenalty
		st.MisfetchCycles += c.cfg.MisfetchPenalty
		redirect = true
	}
	if resolve {
		extra += c.cfg.ResolvePenalty
		st.ResolveCycles += c.cfg.ResolvePenalty
		redirect = true
	}
	return extra, redirect
}

// access performs one demand L1-I block access, returning exposed stall
// cycles.
func (c *Core) access(now float64, b isa.Addr) float64 {
	st := &c.st
	st.L1IAccesses++
	key := blockKey(b)
	hit := c.l1i.Lookup(key)
	var stall float64
	switch {
	case hit:
	default:
		if ready, ok := c.inflight.Take(key); ok {
			// A fill is in flight: wait out the residual latency only. A
			// barely-started fill is still an effective miss for miss
			// accounting (the paper's coverage numbers count misses the
			// prefetcher failed to hide).
			resid := ready - now
			if resid < 0 {
				resid = 0
			}
			stall = resid * c.cfg.Exposure
			st.PrefLate++
			st.PrefUseful++
			if resid >= c.halfLLCLat {
				st.L1IMisses++
			}
			c.fill(now, b, false)
		} else {
			st.L1IMisses++
			raw := float64(c.fillLatency(b | c.asBase))
			if c.cfg.PredecodePenalty > 0 {
				raw += c.cfg.PredecodePenalty
				st.PredecodeCycles += c.cfg.PredecodePenalty * c.cfg.Exposure
			}
			stall = raw * c.cfg.Exposure
			c.fill(now, b, true)
			st.DemandFills++
		}
	}
	st.L1IStallCycles += stall

	if pf := c.cfg.Prefetcher; pf != nil {
		miss := !hit
		c.reqs = pf.OnAccess(now, b, miss, c.reqs[:0])
		c.schedule(now, c.reqs)
	}
	if c.cfg.Recorder != nil {
		if !c.hasLast || key != c.lastBlock {
			c.cfg.Recorder.Record(key | c.keyTag)
			c.lastBlock = key
			c.hasLast = true
		}
	}
	return stall
}

// fill installs a block in the L1-I, mirroring the change into the BTB
// design (Confluence's synchronization; other designs ignore the hooks).
func (c *Core) fill(now float64, b isa.Addr, demand bool) {
	c.fillQuiet(now, b, demand)
	if c.cfg.BTB != nil {
		c.st.L1IFills++
	}
}

// fillQuiet is fill without the stat counter — the shared install path
// FastStep also drives (fast-forward moves no counters).
func (c *Core) fillQuiet(now float64, b isa.Addr, demand bool) {
	evicted, was := c.l1i.Insert(blockKey(b))
	d := c.cfg.BTB
	if d == nil {
		return
	}
	if was {
		d.BlockEvicted(isa.Addr(evicted << isa.BlockShift))
	}
	var branches []isa.PredecodedBranch
	if c.cfg.Prog != nil {
		branches = c.cfg.Prog.PredecodeBlock(b)
	}
	d.BlockFilled(now, b, branches, demand)
}

// schedule registers prefetch requests with the fill pipeline.
func (c *Core) schedule(now float64, reqs []prefetch.Request) {
	if len(reqs) == 0 || c.cfg.PerfectL1I {
		return
	}
	for _, r := range reqs {
		key := blockKey(r.Block)
		if c.l1i.Contains(key) {
			continue
		}
		if _, ok := c.inflight.Ready(key); ok {
			continue
		}
		ready := now + r.ExtraDelay + float64(c.fillLatency(r.Block|c.asBase))
		if ready < now {
			ready = now
		}
		c.inflight.Add(key, ready)
		c.st.PrefIssued++
	}
}

// scrub ages out long-completed, never-demanded fills (bad prefetches) to
// bound the in-flight table. The model does not charge cache pollution for
// them (DESIGN.md §5).
func (c *Core) scrub(now float64) {
	c.st.PrefDiscarded += uint64(c.inflight.Expire(now-2048, nil))
}
