package cmp_test

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"testing"

	"confluence/internal/cmp"
	"confluence/internal/core"
	"confluence/internal/synth"
	"confluence/internal/trace"
)

// smallWorkloads builds n distinct reduced-size server workloads.
func smallWorkloads(t *testing.T, n int) []*synth.Workload {
	t.Helper()
	profs := synth.Profiles()
	ws := make([]*synth.Workload, n)
	for i := range ws {
		p := profs[i%len(profs)]
		p.Functions = 300
		p.RequestTypes = 4
		p.Concurrency = 4
		p.Seed = uint64(40 + i)
		w, err := synth.Build(p)
		if err != nil {
			t.Fatal(err)
		}
		ws[i] = w
	}
	return ws
}

// equivDesigns is every design point, SweepBTB included.
var equivDesigns = []core.DesignPoint{
	core.Base1K, core.FDP1K, core.PhantomFDP, core.TwoLevelFDP, core.TwoLevelSHIFT,
	core.Base1KSHIFT, core.PhantomSHIFT, core.Confluence, core.IdealBTBSHIFT, core.Ideal,
	core.AirCapacity, core.AirSpatial, core.AirPrefetch, core.SweepBTB,
}

// ffPair builds the same system twice, the second forced onto the
// round-robin fast-forward loop.
func ffPair(t *testing.T, mix []*synth.Workload, dp core.DesignPoint, opt core.Options) (coreMajor, roundRobin *core.System) {
	t.Helper()
	a, err := core.NewMixSystem(mix, dp, opt)
	if err != nil {
		t.Fatal(err)
	}
	b, err := core.NewMixSystem(mix, dp, opt)
	if err != nil {
		t.Fatal(err)
	}
	cmp.UseRoundRobinFF(b.System)
	return a, b
}

// TestCoreMajorFastForwardEquivalence: core-major fast-forward leaves every
// design bit-identical to the round-robin loop — the warm snapshot (LLC,
// shared history, every core's private state, stream positions) and the
// sampled measurement that follows it. K is the number of FastForward
// calls the warm-up is cut into, the same cut for both loops, so K8 also
// checks that each loop resumes where its previous call stopped.
func TestCoreMajorFastForwardEquivalence(t *testing.T) {
	ws := smallWorkloads(t, 4)
	mixes := [][]*synth.Workload{ws[:1], ws[:2], ws[:4]}
	sp := cmp.Sampling{WindowInstr: 1500, PeriodInstr: 8000, Windows: 3, WindowWarmupInstr: 500, JitterSeed: 5}
	ctx := context.Background()
	for _, dp := range equivDesigns {
		for _, perCore := range []bool{false, true} {
			if perCore && !dp.UsesSHIFT() {
				continue
			}
			for _, mix := range mixes {
				for _, k := range []int{1, 8} {
					name := fmt.Sprintf("%v/mix%d/K%d/perCore=%v", dp, len(mix), k, perCore)
					t.Run(name, func(t *testing.T) {
						opt := core.DefaultOptions()
						opt.Cores = 4
						opt.SweepBTBEntries = 512
						opt.HistoryPerCore = perCore
						a, b := ffPair(t, mix, dp, opt)
						phantom := dp == core.PhantomFDP || dp == core.PhantomSHIFT
						if cmp.CoreMajorFF(a.System) == phantom {
							t.Fatalf("core-major = %v for %v", !phantom, dp)
						}
						for _, s := range []*core.System{a, b} {
							for range k {
								if err := s.FastForward(ctx, uint64(20_000/k)); err != nil {
									t.Fatal(err)
								}
							}
						}
						if a.SnapshotSupported() {
							sa, err := a.WarmSnapshot()
							if err != nil {
								t.Fatal(err)
							}
							sb, err := b.WarmSnapshot()
							if err != nil {
								t.Fatal(err)
							}
							if !bytes.Equal(sa, sb) {
								t.Fatal("warm snapshots differ")
							}
						} else {
							// Per-core histories are out of the snapshot's
							// reach: compare the LLC, each core's private
							// state and core 0's history directly.
							if !reflect.DeepEqual(a.Hier.ExportLLCState(), b.Hier.ExportLLCState()) {
								t.Fatal("LLC state differs")
							}
							for i := range a.Cores {
								if !reflect.DeepEqual(a.Cores[i].ExportWarmState(), b.Cores[i].ExportWarmState()) {
									t.Fatalf("core %d state differs", i)
								}
							}
							if !reflect.DeepEqual(a.History.ExportState(), b.History.ExportState()) {
								t.Fatal("core 0's history differs")
							}
						}
						aggA, winA, pcA, covA, err := a.RunSampled(ctx, sp)
						if err != nil {
							t.Fatal(err)
						}
						aggB, winB, pcB, covB, err := b.RunSampled(ctx, sp)
						if err != nil {
							t.Fatal(err)
						}
						if !reflect.DeepEqual(aggA, aggB) || !reflect.DeepEqual(winA, winB) ||
							!reflect.DeepEqual(pcA, pcB) || !reflect.DeepEqual(covA, covB) {
							t.Fatalf("sampled run differs:\n core-major  %+v %+v\n round-robin %+v %+v", aggA, covA, aggB, covB)
						}
					})
				}
			}
		}
	}
}

// TestCoreMajorAcrossSegments: a fast-forward phase long enough to merge
// the logs several times, with every core of a 2-way mix recording into
// the shared history, still matches the round-robin loop.
func TestCoreMajorAcrossSegments(t *testing.T) {
	ws := smallWorkloads(t, 2)
	opt := core.DefaultOptions()
	opt.Cores = 3
	a, b := ffPair(t, ws, core.Base1KSHIFT, opt)
	n := uint64(3 * cmp.FFSegment * 6) // ~3 segments at ~6 instructions per record
	for _, s := range []*core.System{a, b} {
		if err := s.FastForward(context.Background(), n); err != nil {
			t.Fatal(err)
		}
	}
	if got := a.ConsumedRecords()[0]; got < 2*cmp.FFSegment {
		t.Fatalf("core 0 consumed %d records, want more than two segments", got)
	}
	sa, err := a.WarmSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	sb, err := b.WarmSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sa, sb) {
		t.Fatal("warm snapshots differ")
	}
}

// TestCoreMajorDrySource: finite sources that run dry fail the phase with
// the core and error the round-robin loop reports, whichever core runs
// dry first in its order; sources long enough for the phase do not fail.
func TestCoreMajorDrySource(t *testing.T) {
	w := smallWorkloads(t, 1)[0]
	ctx := context.Background()
	for _, tc := range []struct {
		lens []int
		core int // the core reported dry; -1 for no error
	}{
		{[]int{900, 400, 400, 700}, 1}, // cores 1 and 2 tie
		{[]int{900, 700, 400, 400}, 2}, // cores 2 and 3 tie
		{[]int{300, 900, 900, 900}, 0},
		{[]int{900, 900, 900, 250}, 3},
		{[]int{40000, 40000, 40000, 40000}, -1}, // enough for the phase
	} {
		lens := tc.lens
		t.Run(fmt.Sprint(lens), func(t *testing.T) {
			opt := core.DefaultOptions()
			opt.Cores = len(lens)
			opt.Sources = func(i int) (trace.Source, error) {
				m, err := trace.RecordFrom(trace.NewExecutor(w, trace.CoreSeed(w.Prof.Seed, i)), lens[i])
				if err != nil {
					return nil, err
				}
				m.Loop = false
				return m, nil
			}
			a, b := ffPair(t, []*synth.Workload{w}, core.Base1KSHIFT, opt)
			errA := a.FastForward(ctx, 30_000)
			errB := b.FastForward(ctx, 30_000)
			if fmt.Sprint(errA) != fmt.Sprint(errB) {
				t.Fatalf("core-major error %v, round-robin error %v", errA, errB)
			}
			want := "<nil>"
			if tc.core >= 0 {
				want = fmt.Sprintf("cmp: core %d source: EOF", tc.core)
			}
			if got := fmt.Sprint(errA); got != want {
				t.Fatalf("error %q, want %q", got, want)
			}
			// The LLC holds exactly the rounds before the failure.
			if !reflect.DeepEqual(a.Hier.ExportLLCState(), b.Hier.ExportLLCState()) {
				t.Fatal("LLC state differs after the phase")
			}
		})
	}
}

// BenchmarkFastForward compares the two fast-forward loops on a 4-core
// system running a full-size paper workload, in ns per simulated
// instruction.
func BenchmarkFastForward(b *testing.B) {
	w, err := synth.Build(synth.OLTPDB2())
	if err != nil {
		b.Fatal(err)
	}
	const chunk = 100_000 // instructions per core per FastForward call
	for _, dp := range []core.DesignPoint{core.Base1K, core.Confluence} {
		for _, rr := range []bool{false, true} {
			name := dp.String() + "/core-major"
			if rr {
				name = dp.String() + "/round-robin"
			}
			b.Run(name, func(b *testing.B) {
				opt := core.DefaultOptions()
				opt.Cores = 4
				sys, err := core.NewSystem(w, dp, opt)
				if err != nil {
					b.Fatal(err)
				}
				if rr {
					cmp.UseRoundRobinFF(sys.System)
				}
				ctx := context.Background()
				if err := sys.FastForward(ctx, chunk); err != nil {
					b.Fatal(err)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := sys.FastForward(ctx, chunk); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*chunk*opt.Cores), "ns/instr")
			})
		}
	}
}
