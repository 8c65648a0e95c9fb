package cmp

import (
	"testing"

	"confluence/internal/isa"
	"confluence/internal/trace"
)

// TestRoundRobinSourceErrors: a finite source exhausting mid-run must
// abort the run, and decode-ahead must not surface an EOF the round-robin
// loop would never have needed.
func TestRoundRobinSourceErrors(t *testing.T) {
	for _, mode := range []struct {
		name       string
		sufficient bool
	}{
		{"exhausted", false},
		// A target inside the finite source's budget must run clean: the
		// EOF that decode-ahead (batch 64) reaches beyond the target stays
		// invisible.
		{"sufficient", true},
	} {
		sys := testSystem(t, 2)
		live := sys.Sources[0]
		short, err := trace.RecordFrom(live, 50)
		if err != nil {
			t.Fatal(err)
		}
		var budget uint64
		for _, r := range short.Recs {
			budget += uint64(r.N)
		}
		short.Loop = false
		if err := short.Reset(); err != nil {
			t.Fatal(err)
		}
		sys.Sources[0] = short
		instr := budget * 4 // overshoots the finite source
		if mode.sufficient {
			instr = budget / 2
		}
		_, err = sys.Run(0, instr)
		if !mode.sufficient && err == nil {
			t.Errorf("%s: exhausted source did not fail the run", mode.name)
		}
		if mode.sufficient && err != nil {
			t.Errorf("%s: in-bounds run failed: %v", mode.name, err)
		}
	}
}

// makeStragglerRecords builds a looping block stream advancing n
// instructions per record over a fixed 256-block footprint.
func makeStragglerRecords(n int) []trace.Record {
	const blocks = 256
	recs := make([]trace.Record, blocks)
	base := isa.Addr(0x40000)
	for i := range recs {
		start := base + isa.Addr(i)*isa.BlockBytes
		next := base + isa.Addr((i+1)%blocks)*isa.BlockBytes
		recs[i] = trace.Record{Start: start, N: n, Next: next}
	}
	return recs
}

// stragglerSystem builds a CMP where core 0 advances 4 instructions per
// block while every other core advances 32: the fast cores hit the phase
// target early and core 0 straggles for ~8x as many rounds.
func stragglerSystem(b *testing.B, cores int) *System {
	b.Helper()
	sys := testSystem(b, cores)
	for i := range sys.Sources {
		n := 32
		if i == 0 {
			n = 4
		}
		sys.Sources[i] = trace.NewMemSource(makeStragglerRecords(n), true)
	}
	return sys
}

// BenchmarkPhaseStraggler measures the phase loop's straggler overhead: the
// compacted active-core list drops finished cores, so a lone straggler
// costs O(1) per block instead of O(cores) re-checks per turn.
func BenchmarkPhaseStraggler(b *testing.B) {
	sys := stragglerSystem(b, 16)
	if _, err := sys.Run(0, 10_000); err != nil { // prime caches & engine
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.Run(0, 50_000); err != nil {
			b.Fatal(err)
		}
	}
}
