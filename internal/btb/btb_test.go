package btb

import (
	"testing"

	"confluence/internal/isa"
	"confluence/internal/trace"
)

// storedEntry returns the entry c holds under key k, read from its
// exported state: the main structure's valid ways, then the victim buffer.
func storedEntry(c *Conventional, k uint64) (Entry, bool) {
	st := c.ExportState()
	for s := 0; s < st.Main.Sets; s++ {
		for w := 0; w < int(st.Main.Occ[s]); w++ {
			if i := s*st.Main.Ways + w; st.Main.Keys[i] == k {
				return st.MainVals[i], true
			}
		}
	}
	if st.Victim != nil {
		for i, key := range st.Victim.Keys {
			if key == k {
				return st.VictimVals[i], true
			}
		}
	}
	return Entry{}, false
}

func takenBranch(pc isa.Addr, kind isa.BranchKind, target isa.Addr) trace.BranchInfo {
	return trace.BranchInfo{PC: pc, Kind: kind, Taken: true, Target: target}
}

func TestConventionalAllocatesOnTakenOnly(t *testing.T) {
	c := NewConventional("t", 64, 4, 0)
	bb := isa.Addr(0x1000)
	brPC := bb + 8
	// Not-taken resolution must not allocate.
	c.Resolve(0, bb, 3, trace.BranchInfo{PC: brPC, Kind: isa.BrCond, Taken: false, Target: 0x2000})
	if res := c.Lookup(0, bb, brPC); res.Hit {
		t.Error("not-taken branch allocated an entry")
	}
	c.Resolve(0, bb, 3, takenBranch(brPC, isa.BrCond, 0x2000))
	if res := c.Lookup(0, bb, brPC); !res.Hit {
		t.Fatal("taken branch did not allocate")
	}
	if e, _ := storedEntry(c, c.key(bb, brPC)); e.Target != 0x2000 || e.Kind != isa.BrCond || e.FallN != 3 {
		t.Errorf("entry = %+v", e)
	}
}

func TestConventionalVictimBuffer(t *testing.T) {
	c := NewConventional("t", 1, 1, 4) // 1-entry main + 4-entry victim
	a, b := isa.Addr(0x1000), isa.Addr(0x2000)
	c.Resolve(0, a, 2, takenBranch(a+4, isa.BrUncond, 0x3000))
	c.Resolve(0, b, 2, takenBranch(b+4, isa.BrUncond, 0x4000))
	// a was evicted to the victim buffer; looking it up promotes it back.
	if res := c.Lookup(0, a, a+4); !res.Hit {
		t.Fatal("victim buffer did not retain the evicted entry")
	}
	// And b is now the victim.
	if res := c.Lookup(0, b, b+4); !res.Hit {
		t.Fatal("promoted entry displaced b out of reach")
	}
}

func TestConventionalNoVictim(t *testing.T) {
	c := NewConventional("t", 1, 1, 0)
	a, b := isa.Addr(0x1000), isa.Addr(0x2000)
	c.Resolve(0, a, 2, takenBranch(a+4, isa.BrUncond, 0x3000))
	c.Resolve(0, b, 2, takenBranch(b+4, isa.BrUncond, 0x4000))
	if res := c.Lookup(0, a, a+4); res.Hit {
		t.Error("entry survived without a victim buffer")
	}
}

func TestConventionalCapacity(t *testing.T) {
	c := NewConventional("t", 256, 4, 64)
	if c.Capacity() != 1024 {
		t.Errorf("Capacity = %d", c.Capacity())
	}
	if c.Name() != "t" {
		t.Error("name lost")
	}
}

func TestEagerInsertsPredecodedBranches(t *testing.T) {
	e := NewEager("eager", 64, 4, 8)
	block := isa.Addr(0x4000)
	branches := []isa.PredecodedBranch{
		{Offset: 2, Kind: isa.BrCond, Target: 0x5000},
		{Offset: 9, Kind: isa.BrCall, Target: 0x6000},
	}
	e.BlockFilled(0, block, branches, true)
	for _, pb := range branches {
		res := e.Lookup(0, 0, pb.PC(block))
		got, _ := storedEntry(e, e.key(0, pb.PC(block)))
		if !res.Hit || got.Target != pb.Target {
			t.Errorf("eager entry for offset %d missing or wrong: %+v %+v", pb.Offset, res, got)
		}
	}
}

func TestNonEagerIgnoresBlockFills(t *testing.T) {
	c := NewConventional("t", 64, 4, 0)
	block := isa.Addr(0x4000)
	c.BlockFilled(0, block, []isa.PredecodedBranch{{Offset: 2, Kind: isa.BrCond, Target: 0x5000}}, true)
	if res := c.Lookup(0, 0, block+8); res.Hit {
		t.Error("conventional BTB reacted to a block fill")
	}
}

func TestTwoLevelPromotionAndBubble(t *testing.T) {
	tl := NewTwoLevel("2L", 1, 1, 64, 4, 3)
	a, b := isa.Addr(0x1000), isa.Addr(0x2000)
	tl.Resolve(0, a, 2, takenBranch(a+4, isa.BrUncond, 0x3000))
	tl.Resolve(0, b, 2, takenBranch(b+4, isa.BrUncond, 0x4000)) // evicts a from L1 into L2
	res := tl.Lookup(0, a, a+4)
	if !res.Hit {
		t.Fatal("entry lost from both levels")
	}
	if res.Bubble != 3 {
		t.Errorf("L2 hit bubble = %v, want 3", res.Bubble)
	}
	// The L2 hit promoted a into L1: next lookup is bubble-free.
	if res := tl.Lookup(0, a, a+4); !res.Hit || res.Bubble != 0 {
		t.Errorf("promotion failed: %+v", res)
	}
	if tl.L2Hits != 1 {
		t.Errorf("L2Hits = %d", tl.L2Hits)
	}
}

func TestTwoLevelMissBothLevels(t *testing.T) {
	tl := NewTwoLevel("2L", 4, 2, 64, 4, 3)
	res := tl.Lookup(0, 0x1000, 0x1004)
	if res.Hit || res.Bubble != 0 {
		t.Errorf("cold lookup: %+v", res)
	}
	if tl.L2Misses != 1 {
		t.Errorf("L2Misses = %d", tl.L2Misses)
	}
}

func TestTwoLevelL1HitIsFree(t *testing.T) {
	tl := NewTwoLevel("2L", 4, 2, 64, 4, 3)
	a := isa.Addr(0x1000)
	tl.Resolve(0, a, 2, takenBranch(a+4, isa.BrUncond, 0x3000))
	if res := tl.Lookup(0, a, a+4); !res.Hit || res.Bubble != 0 {
		t.Errorf("L1 hit: %+v", res)
	}
}

func TestEntryFallthroughEncoding(t *testing.T) {
	// Basic blocks are capped at 15 instructions so FallN fits the paper's
	// 4-bit fall-through field.
	c := NewConventional("t", 64, 4, 0)
	bb := isa.Addr(0x1000)
	c.Resolve(0, bb, 15, takenBranch(bb+14*4, isa.BrUncond, 0x2000))
	e, ok := storedEntry(c, c.key(bb, bb+14*4))
	if !ok || e.FallN != 15 {
		t.Errorf("FallN = %d (stored %v)", e.FallN, ok)
	}
}
