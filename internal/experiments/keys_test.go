package experiments

import (
	"reflect"
	"testing"

	"confluence/internal/core"
	"confluence/internal/synth"
)

// keyedOptionsFields lists the core.Options fields that feed optionsKey,
// and optionsNotKeyed those that provably cannot change a result. A new
// field must join one list or the other.
var (
	keyedOptionsFields = []string{"Cores", "Air", "Shift", "FDP", "SweepBTBEntries", "HistoryPerCore"}
	optionsNotKeyed    = []string{
		"Sources", // an opaque override: cells carrying one have no key at all
	}
	keyedSamplingFields = []string{"WindowInstr", "PeriodInstr", "Windows", "WindowWarmupInstr", "JitterSeed"}
)

// structFields returns the field names of struct type t, in order.
func structFields(t reflect.Type) []string {
	out := make([]string, t.NumField())
	for i := range out {
		out[i] = t.Field(i).Name
	}
	return out
}

// checkClassified fails for every field of typ on neither list, and for
// every listed name typ does not have.
func checkClassified(t *testing.T, typ reflect.Type, keyed, exempt []string) {
	t.Helper()
	listed := make(map[string]bool)
	for _, n := range append(append([]string(nil), keyed...), exempt...) {
		if listed[n] {
			t.Errorf("%v.%s is listed twice", typ, n)
		}
		listed[n] = true
	}
	for _, f := range structFields(typ) {
		if !listed[f] {
			t.Errorf("%v.%s is neither key material nor listed as result-neutral: "+
				"add it to the store key or to the exempt list with a reason", typ, f)
		}
		delete(listed, f)
	}
	for n := range listed {
		t.Errorf("%v has no field %s; drop it from the lists", typ, n)
	}
}

// TestKeyMaterialComplete: every field of core.Options and core.Sampling
// either feeds the cell store key or is explicitly result-neutral, and each
// keyed field really moves the key.
func TestKeyMaterialComplete(t *testing.T) {
	checkClassified(t, reflect.TypeOf(core.Options{}), keyedOptionsFields, optionsNotKeyed)
	checkClassified(t, reflect.TypeOf(core.Sampling{}), keyedSamplingFields, nil)
	checkClassified(t, reflect.TypeOf(samplingKey{}), keyedSamplingFields, nil)

	mix := pinMix()
	base := core.DefaultOptions()
	sp := core.AutoSampling(800_000)
	key := func(opt core.Options, sp core.Sampling) string {
		k, ok := CellStoreKeySampled(1000, 2000, mix, "", core.Confluence, opt, sp)
		if !ok {
			t.Fatal("no key for a plain live cell")
		}
		return k
	}
	ref := key(base, sp)
	for _, name := range keyedOptionsFields {
		opt := base
		perturb(t, reflect.ValueOf(&opt).Elem().FieldByName(name))
		if key(opt, sp) == ref {
			t.Errorf("Options.%s does not reach the store key", name)
		}
	}
	for _, name := range keyedSamplingFields {
		s := sp
		perturb(t, reflect.ValueOf(&s).Elem().FieldByName(name))
		if key(base, s) == ref {
			t.Errorf("Sampling.%s does not reach the store key", name)
		}
	}
}

// perturb changes v to a different valid value: it bumps numbers, flips
// bools, and perturbs a struct's first field.
func perturb(t *testing.T, v reflect.Value) {
	t.Helper()
	switch v.Kind() {
	case reflect.Int:
		v.SetInt(v.Int() + 3)
	case reflect.Uint64:
		v.SetUint(v.Uint() + 3)
	case reflect.Bool:
		v.SetBool(!v.Bool())
	case reflect.Struct:
		perturb(t, v.Field(0))
	default:
		t.Fatalf("cannot perturb a %v", v.Kind())
	}
}

// pinMix is a fixed two-workload mix; store keys read only the profiles.
func pinMix() []*synth.Workload {
	return []*synth.Workload{{Prof: synth.OLTPDB2()}, {Prof: synth.DSS()}}
}

// TestStoreKeysPinned pins the hex store keys of a fixed cell set. These
// are the keys results already on disk are filed under: a change that
// moves one orphans every stored result of that shape, so it must come
// with a ResultVersion (or WarmVersion) bump and a new pin, never alone.
func TestStoreKeysPinned(t *testing.T) {
	mix := pinMix()
	opt := core.DefaultOptions()
	opt.Cores = 4
	sweep := opt
	sweep.SweepBTBEntries = 4096
	private := opt
	private.HistoryPerCore = true
	sp := core.AutoSampling(800_000)

	key := func(k string, ok bool) string {
		if !ok {
			t.Fatal("cell has no store key")
		}
		return k
	}
	for _, tc := range []struct {
		name, got, want string
	}{
		{"exact/Confluence", key(CellStoreKey(800_000, 800_000, mix[:1], "", core.Confluence, opt)),
			"c0ddec6950e06a9cfa07b4e2035642874860dca2f8e02c91c334c9a0c38f4c29"},
		{"exact/SweepBTB", key(CellStoreKey(800_000, 800_000, mix[:1], "", core.SweepBTB, sweep)),
			"3d59275252d005d65f8d11c9a855c26e1fd4097e4cfdd8689aa23f1b16999c77"},
		{"exact/mix/private", key(CellStoreKey(800_000, 800_000, mix, "", core.Confluence, private)),
			"7b7d9da637bbd7b3a86c88598569542ed3946a6db6f731c67da8dc4afbd1c4f6"},
		{"exact/defaults", key(CellStoreKey(1_500_000, 1_500_000, mix[:1], "", core.Base1K, core.Options{})),
			"31c309fba0123318751cc729758c7e83c5e6809d3c003acea40e6c36322c60af"},
		{"sampled/Confluence", key(CellStoreKeySampled(800_000, 800_000, mix[:1], "", core.Confluence, opt, sp)),
			"1ad526895569c1451aad0f99b65082ff9d6380bae1fe75f5138a6a5971fa5fc8"},
		{"sampled/PhantomSHIFT", key(CellStoreKeySampled(800_000, 800_000, mix, "", core.PhantomSHIFT, opt, sp)),
			"1cf5c6ac00b091792d6fc0759c82223936c5e44fce96be002c8982497661f41b"},
		{"snapshot/Confluence", key(SnapshotStoreKey(800_000, mix[:1], "", core.Confluence, opt)),
			"8065af08142b0ea9e4bf73c356642d173ec08694d372496177224b5add8e19e3"},
		{"snapshot/FDP1K", key(SnapshotStoreKey(800_000, mix, "", core.FDP1K, opt)),
			"673f98c09a4fb0821d05c73620939f898528061f9b2f8266bef55773db09bdc3"},
	} {
		if tc.got != tc.want {
			t.Errorf("%s: key %s, pinned %s", tc.name, tc.got, tc.want)
		}
	}
}
