package experiments

import (
	"encoding/json"
	"os"
	"path/filepath"

	"confluence/internal/airbtb"
	"confluence/internal/core"
	"confluence/internal/fdp"
	"confluence/internal/frontend"
	"confluence/internal/shift"
	"confluence/internal/store"
	"confluence/internal/synth"
	"confluence/internal/trace"
)

// ResultVersion pins the simulation semantics a stored result was computed
// under. It is part of every cell's store key, so bumping it invalidates the
// whole store at once. Bump it exactly when testdata/golden.json is
// regenerated: the golden file and the store make the same promise (these
// bytes are what this code computes), so they version together.
const ResultVersion = "confluence-results-v1"

// cellKeyMaterial is the canonical serialization a cell's store key is
// hashed from: everything that determines the cell's result, and nothing
// that cannot change it. In particular worker counts (Runner.Workers) are
// absent — the determinism contract guarantees they never change results.
//
// Workloads appear as their full synth.Profile: generation is deterministic
// in the profile (synth.Build), so the profile is the workload's complete
// identity. A trace-replaying slot additionally carries its capture
// directory's file listing (names and sizes) — a cheap proxy for content;
// replacing a capture with a same-name same-size file is out of scope.
type cellKeyMaterial struct {
	Version   string          `json:"version"`
	Warmup    uint64          `json:"warmup"`
	Measure   uint64          `json:"measure"`
	Design    string          `json:"design"`
	Profiles  []synth.Profile `json:"profiles"`
	TraceDirs []traceDirKey   `json:"trace_dirs,omitempty"`
	Options   optionsKey      `json:"options"`
	// Sampling is nil for exact runs, so every pre-sampling key is
	// byte-stable; a sampled run is a different cell than the exact run
	// of the same configuration.
	Sampling *samplingKey `json:"sampling,omitempty"`
}

// samplingKey is the sampled-execution plan as key material.
type samplingKey struct {
	WindowInstr       uint64 `json:"window_instr"`
	PeriodInstr       uint64 `json:"period_instr"`
	Windows           int    `json:"windows"`
	WindowWarmupInstr uint64 `json:"window_warmup_instr,omitempty"`
	JitterSeed        uint64 `json:"jitter_seed,omitempty"`
}

// traceDirKey identifies one mix slot's replay capture.
type traceDirKey struct {
	Slot  int            `json:"slot"`
	Dir   string         `json:"dir"`
	Files []traceFileKey `json:"files"`
}

type traceFileKey struct {
	Name string `json:"name"`
	Size int64  `json:"size"`
}

// optionsKey is core.Options restricted to the result-determining fields
// (no Sources), normalized so explicit defaults and zero-value sentinels
// hash identically.
type optionsKey struct {
	Cores           int           `json:"cores"`
	Air             airbtb.Config `json:"air"`
	Shift           shift.Config  `json:"shift"`
	FDP             fdp.Config    `json:"fdp"`
	SweepBTBEntries int           `json:"sweep_btb_entries"`
	HistoryPerCore  bool          `json:"history_per_core"`
	// EpochBlocks is always 1 and selects nothing. Stored results were
	// keyed with the field at 1, so it stays, pinned, to keep their keys
	// byte-stable without a ResultVersion bump.
	EpochBlocks int `json:"epoch_blocks"`
}

// CellStoreKey derives the durable store key for one simulation cell:
// per-core warmup/measure instruction counts, the workload mix (with
// traceDir overriding every slot's own capture, as Config.TraceDir does),
// the design point, and the options. The second return is false when the
// cell is not expressible as canonical key material — an Options.Sources
// override (arbitrary code feeds the cores) or an unreadable capture
// directory — in which case the caller skips the store entirely.
func CellStoreKey(warmup, measure uint64, mix []*synth.Workload, traceDir string, dp core.DesignPoint, opt core.Options) (string, bool) {
	return CellStoreKeySampled(warmup, measure, mix, traceDir, dp, opt, core.Sampling{})
}

// CellStoreKeySampled is CellStoreKey for a sampled cell: the sampling
// plan joins the key material (a zero plan reproduces CellStoreKey's
// exact-mode keys byte for byte).
func CellStoreKeySampled(warmup, measure uint64, mix []*synth.Workload, traceDir string, dp core.DesignPoint, opt core.Options, sp core.Sampling) (string, bool) {
	if opt.Sources != nil {
		return "", false
	}
	opt = opt.Normalized()
	m := cellKeyMaterial{
		Version:  ResultVersion,
		Warmup:   warmup,
		Measure:  measure,
		Design:   dp.String(),
		Profiles: make([]synth.Profile, len(mix)),
		Options: optionsKey{
			Cores:           opt.Cores,
			Air:             opt.Air,
			Shift:           opt.Shift,
			FDP:             opt.FDP,
			SweepBTBEntries: opt.SweepBTBEntries,
			HistoryPerCore:  opt.HistoryPerCore,
			EpochBlocks:     1,
		},
	}
	if sp.Enabled() {
		m.Sampling = &samplingKey{
			WindowInstr:       sp.WindowInstr,
			PeriodInstr:       sp.PeriodInstr,
			Windows:           sp.Windows,
			WindowWarmupInstr: sp.WindowWarmupInstr,
			JitterSeed:        sp.JitterSeed,
		}
	}
	for i, w := range mix {
		m.Profiles[i] = w.Prof
		dir := w.TraceDir
		if traceDir != "" {
			dir = traceDir
		}
		if dir == "" {
			continue
		}
		tk, ok := traceDirIdentity(i, dir)
		if !ok {
			return "", false
		}
		m.TraceDirs = append(m.TraceDirs, tk)
	}
	material, err := json.Marshal(m)
	if err != nil {
		return "", false
	}
	return store.Key(material), true
}

// traceDirIdentity lists a capture directory's trace files as key material.
func traceDirIdentity(slot int, dir string) (traceDirKey, bool) {
	files, err := trace.TraceFiles(dir)
	if err != nil {
		return traceDirKey{}, false
	}
	tk := traceDirKey{Slot: slot, Dir: dir, Files: make([]traceFileKey, 0, len(files))}
	for _, f := range files {
		info, err := os.Stat(f)
		if err != nil {
			return traceDirKey{}, false
		}
		tk.Files = append(tk.Files, traceFileKey{Name: filepath.Base(f), Size: info.Size()})
	}
	return tk, true
}

// StoreEntry is the payload stored per cell: the measured stats plus the
// area-model outputs, everything a Result needs beyond its Config. All
// fields are plain exported numbers, and Go's float64 JSON round trip is
// exact (shortest-representation encoding), so a decoded entry formats
// byte-identically to the live run it replaced.
type StoreEntry struct {
	Stats        *frontend.Stats   `json:"stats"`
	PerCore      []*frontend.Stats `json:"per_core"`
	OverheadMM2  float64           `json:"overhead_mm2"`
	RelativeArea float64           `json:"relative_area"`
	// Sampled carries the sampling report of a sampled cell (nil for
	// exact runs, and absent from their serialized form).
	Sampled *SampledReport `json:"sampled,omitempty"`
}

// EncodeStoreEntry serializes a cell result for Store.Put.
func EncodeStoreEntry(e StoreEntry) ([]byte, error) { return json.Marshal(e) }

// DecodeStoreEntry parses a stored payload. Malformed or incomplete
// payloads (a schema change without a ResultVersion bump, say) report ok =
// false, which callers treat as a store miss.
func DecodeStoreEntry(payload []byte) (StoreEntry, bool) {
	var e StoreEntry
	if err := json.Unmarshal(payload, &e); err != nil || e.Stats == nil {
		return StoreEntry{}, false
	}
	return e, true
}
