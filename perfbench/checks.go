package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"

	"confluence"
	"confluence/internal/core"
	"confluence/internal/synth"
)

// goldenPath is the repository's pinned golden grid, read relative to the
// checkout root the benchmark runs from.
const goldenPath = "testdata/golden.json"

// digestsPath holds the committed per-cell digests of both figure
// workloads at the default seed.
const digestsPath = "perfbench/digests.json"

// cellDigests maps a cell ID to the SHA-256 of its canonical result.
type cellDigests map[string]string

// digestOf hashes v's JSON encoding (Go's encoder is deterministic for
// structs and sorts map keys).
func digestOf(v any) (string, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// compareDigests returns one problem line per cell whose digest differs
// from want, is missing, or is unexpected.
func compareDigests(workload string, got, want cellDigests) []string {
	var problems []string
	ids := make([]string, 0, len(want))
	for id := range want {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		g, ok := got[id]
		switch {
		case !ok:
			problems = append(problems, fmt.Sprintf("%s: cell %s missing from the run", workload, id))
		case g != want[id]:
			problems = append(problems, fmt.Sprintf("%s: cell %s stats digest %.12s, committed %.12s", workload, id, g, want[id]))
		}
	}
	extra := make([]string, 0)
	for id := range got {
		if _, ok := want[id]; !ok {
			extra = append(extra, id)
		}
	}
	sort.Strings(extra)
	for _, id := range extra {
		problems = append(problems, fmt.Sprintf("%s: cell %s has no committed digest", workload, id))
	}
	return problems
}

// loadDigests reads the committed digests of one workload.
func loadDigests(workload string) (cellDigests, error) {
	all, err := readDigestFile()
	if err != nil {
		return nil, err
	}
	d, ok := all[workload]
	if !ok {
		return nil, fmt.Errorf("%s has no entry for %s", digestsPath, workload)
	}
	return d, nil
}

func readDigestFile() (map[string]cellDigests, error) {
	data, err := os.ReadFile(digestsPath)
	if err != nil {
		return nil, err
	}
	var all map[string]cellDigests
	if err := json.Unmarshal(data, &all); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", digestsPath, err)
	}
	return all, nil
}

// saveDigests rewrites one workload's entry in digestsPath.
func saveDigests(workload string, d cellDigests) error {
	all, err := readDigestFile()
	if err != nil {
		if !os.IsNotExist(err) {
			return err
		}
		all = make(map[string]cellDigests)
	}
	all[workload] = d
	b, err := json.MarshalIndent(all, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(digestsPath, append(b, '\n'), 0o644)
}

// goldenMetrics mirrors one design's entry in testdata/golden.json.
type goldenMetrics struct {
	IPC     float64 `json:"ipc"`
	L1IMPKI float64 `json:"l1i_mpki"`
	BTBMPKI float64 `json:"btb_mpki"`
}

// checkGolden re-runs the golden grid (the fixed-seed OLTP-DB2 workload
// over every pinned design, 2 cores, 30K warm-up + 60K measured
// instructions) through confluence.RunCtx and compares it with
// testdata/golden.json. It returns the number of designs checked and one
// problem line per mismatch.
func checkGolden(ctx context.Context) (int, []string, error) {
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		return 0, nil, err
	}
	var want map[string]goldenMetrics
	if err := json.Unmarshal(data, &want); err != nil {
		return 0, nil, fmt.Errorf("parsing %s: %w", goldenPath, err)
	}
	p := synth.OLTPDB2()
	p.Functions = 520
	p.RequestTypes = 6
	p.Concurrency = 6
	p.Seed = 0x901d
	w, err := synth.Build(p)
	if err != nil {
		return 0, nil, err
	}
	designs := []core.DesignPoint{
		core.Base1K, core.FDP1K, core.PhantomFDP, core.TwoLevelFDP, core.TwoLevelSHIFT,
		core.Base1KSHIFT, core.PhantomSHIFT, core.Confluence, core.IdealBTBSHIFT, core.Ideal,
		core.AirCapacity, core.AirSpatial, core.AirPrefetch, core.SweepBTB,
	}
	var problems []string
	if len(want) != len(designs) {
		problems = append(problems, fmt.Sprintf("golden: file pins %d designs, grid has %d", len(want), len(designs)))
	}
	for _, dp := range designs {
		cfg := confluence.Config{Workload: w, Design: dp, Cores: 2, WarmupInstr: 30_000, MeasureInstr: 60_000}
		if dp == core.SweepBTB {
			cfg.Options = core.DefaultOptions()
			cfg.Options.SweepBTBEntries = 2048
		}
		res, err := confluence.RunCtx(ctx, cfg)
		if err != nil {
			return 0, nil, fmt.Errorf("golden %s: %w", dp, err)
		}
		wm, ok := want[dp.String()]
		if !ok {
			problems = append(problems, fmt.Sprintf("golden: %s not pinned", dp))
			continue
		}
		for _, c := range []struct {
			name     string
			got, exp float64
		}{
			{"IPC", res.Stats.IPC(), wm.IPC},
			{"L1-I MPKI", res.Stats.L1IMPKI(), wm.L1IMPKI},
			{"BTB MPKI", res.Stats.BTBMPKI(), wm.BTBMPKI},
		} {
			if math.Abs(c.got-c.exp) > 1e-9*math.Max(1, math.Abs(c.exp)) {
				problems = append(problems, fmt.Sprintf("golden: %s %s = %.12g, pinned %.12g", dp, c.name, c.got, c.exp))
			}
		}
	}
	return len(designs), problems, nil
}
