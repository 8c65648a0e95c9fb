package airbtb

import (
	"testing"

	"confluence/internal/isa"
	"confluence/internal/trace"
)

// storedEntry returns the entry a holds for the branch at brPC, read from
// its exported state: the block's bundle, then the overflow buffer.
func storedEntry(a *AirBTB, brPC isa.Addr) (Entry, bool) {
	st := a.ExportState()
	block, off := uint64(isa.BlockOf(brPC)), uint8(isa.BlockIndex(brPC))
	for i, k := range st.Bundles.Keys {
		if st.Bundles.Live[i>>6]&(1<<(i&63)) == 0 || k != block {
			continue
		}
		b := st.BundleVals[i]
		for _, e := range b.Entries[:b.N] {
			if e.Offset == off {
				return e, true
			}
		}
	}
	for i, pc := range st.OverflowPCs {
		if pc == brPC {
			return st.OverflowEnts[i], true
		}
	}
	return Entry{}, false
}

// lookupEntry is a Lookup that also returns the stored entry it hit.
func lookupEntry(a *AirBTB, bb, brPC isa.Addr) (bool, Entry) {
	res := a.Lookup(0, bb, brPC)
	e, _ := storedEntry(a, brPC)
	return res.Hit, e
}

func fillBlock(a *AirBTB, block isa.Addr, branches ...isa.PredecodedBranch) {
	a.BlockFilled(0, block, branches, false)
}

func TestLookupHitInBundle(t *testing.T) {
	a := New(DefaultConfig())
	block := isa.Addr(0x4000)
	fillBlock(a, block,
		isa.PredecodedBranch{Offset: 3, Kind: isa.BrCond, Target: 0x5000},
		isa.PredecodedBranch{Offset: 7, Kind: isa.BrCall, Target: 0x6000},
	)
	if hit, e := lookupEntry(a, block, block+3*4); !hit || e.Target != 0x5000 || e.Kind != isa.BrCond {
		t.Fatalf("lookup = %v %+v", hit, e)
	}
	if hit, e := lookupEntry(a, block, block+7*4); !hit || e.Target != 0x6000 {
		t.Fatalf("second branch: %v %+v", hit, e)
	}
}

func TestLookupMissWithoutBundle(t *testing.T) {
	a := New(DefaultConfig())
	if res := a.Lookup(0, 0x4000, 0x4008); res.Hit {
		t.Error("hit without any fill")
	}
}

func TestOverflowSpillAndLookup(t *testing.T) {
	cfg := Config{Bundles: 512, EntriesPerBundle: 3, OverflowEntries: 8}
	a := New(cfg)
	block := isa.Addr(0x4000)
	var branches []isa.PredecodedBranch
	for i := 0; i < 5; i++ { // two more than the bundle holds
		branches = append(branches, isa.PredecodedBranch{
			Offset: uint8(i * 2), Kind: isa.BrCond, Target: isa.Addr(0x5000 + i*16),
		})
	}
	fillBlock(a, block, branches...)
	if a.OverflowInserts != 2 {
		t.Errorf("OverflowInserts = %d, want 2", a.OverflowInserts)
	}
	// All five branches are reachable: three via bundle, two via overflow.
	for _, pb := range branches {
		if res := a.Lookup(0, block, pb.PC(block)); !res.Hit {
			t.Errorf("branch at offset %d unreachable", pb.Offset)
		}
	}
}

func TestOverflowDisabled(t *testing.T) {
	cfg := Config{Bundles: 512, EntriesPerBundle: 3, OverflowEntries: 0}
	a := New(cfg)
	block := isa.Addr(0x4000)
	var branches []isa.PredecodedBranch
	for i := 0; i < 4; i++ {
		branches = append(branches, isa.PredecodedBranch{
			Offset: uint8(i), Kind: isa.BrCond, Target: isa.Addr(0x5000 + i*16),
		})
	}
	fillBlock(a, block, branches...)
	// The fourth branch has nowhere to live (B:3, OB:0) — the Figure 10
	// configuration that can be worse than a conventional BTB.
	if res := a.Lookup(0, block, block+3*4); res.Hit {
		t.Error("overflowed branch reachable without an overflow buffer")
	}
	if res := a.Lookup(0, block, block); !res.Hit {
		t.Error("bundled branch lost")
	}
}

func TestEvictionRemovesBundleAndOverflow(t *testing.T) {
	cfg := Config{Bundles: 512, EntriesPerBundle: 2, OverflowEntries: 8}
	a := New(cfg)
	block := isa.Addr(0x4000)
	fillBlock(a, block,
		isa.PredecodedBranch{Offset: 0, Kind: isa.BrCond, Target: 0x5000},
		isa.PredecodedBranch{Offset: 1, Kind: isa.BrCond, Target: 0x5010},
		isa.PredecodedBranch{Offset: 2, Kind: isa.BrCond, Target: 0x5020}, // overflows
	)
	other := isa.Addr(0x8000)
	fillBlock(a, other, isa.PredecodedBranch{Offset: 0, Kind: isa.BrRet})

	a.BlockEvicted(block)
	if a.HasBundle(block) {
		t.Error("bundle survived eviction")
	}
	if res := a.Lookup(0, block, block+2*4); res.Hit {
		t.Error("overflowed entry survived its block's eviction")
	}
	if !a.HasBundle(other) {
		t.Error("unrelated bundle evicted")
	}
	if a.Evictions != 1 {
		t.Errorf("Evictions = %d", a.Evictions)
	}
}

func TestResolveRefillsLostOverflowEntry(t *testing.T) {
	cfg := Config{Bundles: 512, EntriesPerBundle: 1, OverflowEntries: 1}
	a := New(cfg)
	blockA, blockB := isa.Addr(0x4000), isa.Addr(0x8000)
	fillBlock(a, blockA,
		isa.PredecodedBranch{Offset: 0, Kind: isa.BrCond, Target: 0x5000},
		isa.PredecodedBranch{Offset: 5, Kind: isa.BrUncond, Target: 0x5040}, // -> overflow
	)
	fillBlock(a, blockB,
		isa.PredecodedBranch{Offset: 0, Kind: isa.BrCond, Target: 0x9000},
		isa.PredecodedBranch{Offset: 3, Kind: isa.BrUncond, Target: 0x9040}, // evicts A's overflow entry
	)
	brPC := blockA + 5*4
	if res := a.Lookup(0, blockA, brPC); res.Hit {
		t.Fatal("expected overflow-lost miss")
	}
	// Executing the branch re-installs it in the overflow buffer.
	a.Resolve(0, blockA, 3, trace.BranchInfo{PC: brPC, Kind: isa.BrUncond, Taken: true, Target: 0x5040})
	if res := a.Lookup(0, blockA, brPC); !res.Hit {
		t.Error("resolve did not refill the overflow buffer")
	}
}

func TestResolveUpdatesIndirectTarget(t *testing.T) {
	a := New(DefaultConfig())
	block := isa.Addr(0x4000)
	fillBlock(a, block, isa.PredecodedBranch{Offset: 2, Kind: isa.BrIndirect})
	brPC := block + 2*4
	a.Resolve(0, block, 3, trace.BranchInfo{PC: brPC, Kind: isa.BrIndirect, Taken: true, Target: 0x7777C0})
	if hit, e := lookupEntry(a, block, brPC); !hit || e.Target != 0x7777C0 {
		t.Errorf("indirect target not refreshed: %v %+v", hit, e)
	}
}

func TestResolveIgnoresUnknownBlocks(t *testing.T) {
	a := New(DefaultConfig())
	// Must not panic or allocate bundles.
	a.Resolve(0, 0x4000, 3, trace.BranchInfo{PC: 0x4008, Kind: isa.BrUncond, Taken: true, Target: 0x5000})
	if a.Resident() != 0 {
		t.Error("Resolve allocated a bundle")
	}
}

// TestFigure5WorkedExample reproduces the paper's Figure 5 scenario: block Q
// holds branches at offsets 1 (uncond to X+5), 3 (cond to Q+2's region) and
// 6 (cond); block P holds branches at offsets 3 and 7. The prediction
// sequence of the example must be reproducible from the bundles.
func TestFigure5WorkedExample(t *testing.T) {
	a := New(Config{Bundles: 512, EntriesPerBundle: 3, OverflowEntries: 32})
	P := isa.Addr(0x1000) // "block P"
	Q := isa.Addr(0x2000) // "block Q"

	// Block P: fetch region [P, P+3]; the branch at P+3 is conditional with
	// target Q+2.
	fillBlock(a, P,
		isa.PredecodedBranch{Offset: 3, Kind: isa.BrCond, Target: Q + 2*4},
		isa.PredecodedBranch{Offset: 7, Kind: isa.BrCond, Target: 0x3000},
	)
	// Block Q: branches at offsets 1, 4, 7 (as in the figure's bitmap
	// 01001001 pattern).
	fillBlock(a, Q,
		isa.PredecodedBranch{Offset: 1, Kind: isa.BrUncond, Target: 0x5000},
		isa.PredecodedBranch{Offset: 4, Kind: isa.BrCond, Target: 0x6000},
		isa.PredecodedBranch{Offset: 7, Kind: isa.BrCond, Target: 0x7000},
	)

	// Step 1: lookup for the bb starting at P, ending with the branch P+3.
	if hit, e := lookupEntry(a, P, P+3*4); !hit || e.Target != Q+2*4 {
		t.Fatalf("step 1: %v %+v", hit, e)
	}
	// Step 2: the taken conditional redirects to Q+2; the next branch in
	// block Q at/after offset 2 is at offset 4 (bb [Q+2, Q+4]).
	if hit, e := lookupEntry(a, Q+2*4, Q+4*4); !hit || e.Kind != isa.BrCond || e.Target != 0x6000 {
		t.Fatalf("step 2: %v %+v", hit, e)
	}
	// Step 3: Q+4 not taken; the next bb [Q+5, Q+7] ends at offset 7.
	if hit, e := lookupEntry(a, Q+5*4, Q+7*4); !hit || e.Target != 0x7000 {
		t.Fatalf("step 3: %v %+v", hit, e)
	}
	// Bundle bitmap for Q marks offsets 1, 4, 7.
	// (Internal check: the bitmap drives the fetch-region scan.)
	if bm := a.bundles.Ptr(uint64(Q)).Bitmap; bm != (1<<1 | 1<<4 | 1<<7) {
		t.Errorf("Q bitmap = %016b", bm)
	}
}

func TestRefillReplacesBundle(t *testing.T) {
	a := New(DefaultConfig())
	block := isa.Addr(0x4000)
	fillBlock(a, block, isa.PredecodedBranch{Offset: 1, Kind: isa.BrCond, Target: 0x5000})
	fillBlock(a, block, isa.PredecodedBranch{Offset: 2, Kind: isa.BrCall, Target: 0x6000})
	if res := a.Lookup(0, block, block+1*4); res.Hit {
		t.Error("stale bundle content after refill")
	}
	if res := a.Lookup(0, block, block+2*4); !res.Hit {
		t.Error("refilled bundle missing")
	}
	if a.Resident() != 1 {
		t.Errorf("Resident = %d", a.Resident())
	}
}

func TestStorageBits(t *testing.T) {
	// The paper's final design is ~10.2KB.
	bits := DefaultConfig().StorageBits()
	kb := float64(bits) / 8 / 1024
	if kb < 9 || kb > 11.5 {
		t.Errorf("AirBTB storage = %.1f KB, paper says ~10.2", kb)
	}
	// A 4-entry-bundle configuration costs roughly 2KB more (paper §5.3).
	big := Config{Bundles: 512, EntriesPerBundle: 4, OverflowEntries: 32}
	delta := float64(big.StorageBits()-DefaultConfig().StorageBits()) / 8 / 1024
	if delta < 1.5 || delta > 3 {
		t.Errorf("B:4 costs %.1f KB more, paper says ~2", delta)
	}
}

func TestNewPanicsOnBadBundleSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic for oversized bundle entries")
		}
	}()
	New(Config{Bundles: 512, EntriesPerBundle: 9, OverflowEntries: 0})
}
