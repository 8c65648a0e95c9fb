package serve

import (
	"reflect"
	"testing"

	"confluence"
)

// JobSpec fields by their role in the job store key. Every field must be
// on exactly one list: keyed fields reach the normalized spec in
// jobKeyMaterial, neutral ones are zeroed there because they cannot change
// a result, and unkeyable ones take the spec out of the job-level store.
var (
	jobKeyedFields = []string{
		"Kind", "Workload", "Mix", "Workloads", "Design", "Designs", "Profile",
		"Cores", "WarmupInstr", "MeasureInstr", "NoWarmup",
		"SampleWindowInstr", "SamplePeriodInstr", "SampleWindows",
		"SampleWindowWarmupInstr", "SampleJitterSeed",
	}
	jobNeutralFields = []string{
		"Parallelism", // bounds goroutines; results are worker-count independent
		"Priority",    // orders the queue only
	}
	jobUnkeyedFields = []string{
		"TraceDir", // replay identity includes file contents the spec does not carry
	}
)

// TestJobKeyComplete: every JobSpec field is classified, keyed fields move
// the job store key, neutral fields leave it alone, and unkeyable fields
// remove it.
func TestJobKeyComplete(t *testing.T) {
	typ := reflect.TypeOf(confluence.JobSpec{})
	role := make(map[string]string)
	for r, names := range map[string][]string{"keyed": jobKeyedFields, "neutral": jobNeutralFields, "unkeyed": jobUnkeyedFields} {
		for _, n := range names {
			if role[n] != "" {
				t.Errorf("JobSpec.%s is listed twice", n)
			}
			if _, ok := typ.FieldByName(n); !ok {
				t.Errorf("JobSpec has no field %s; drop it from the lists", n)
			}
			role[n] = r
		}
	}
	key := func(s *confluence.JobSpec) (string, bool) { return jobStoreKey(s) }
	ref, ok := key(pinSpec())
	if !ok {
		t.Fatal("no key for the reference spec")
	}
	for i := 0; i < typ.NumField(); i++ {
		name := typ.Field(i).Name
		spec := pinSpec()
		perturbSpecField(t, reflect.ValueOf(spec).Elem().Field(i))
		got, ok := key(spec)
		switch role[name] {
		case "keyed":
			if !ok || got == ref {
				t.Errorf("JobSpec.%s does not reach the job store key", name)
			}
		case "neutral":
			if !ok || got != ref {
				t.Errorf("JobSpec.%s is listed result-neutral but changes the job store key", name)
			}
		case "unkeyed":
			if ok {
				t.Errorf("JobSpec.%s is listed unkeyable but the spec still has a job store key", name)
			}
		default:
			t.Errorf("JobSpec.%s is unclassified: add it to the job key material or to a "+
				"result-neutral list with a reason", name)
		}
	}
}

// perturbSpecField sets v to a value different from pinSpec's.
func perturbSpecField(t *testing.T, v reflect.Value) {
	t.Helper()
	switch v.Kind() {
	case reflect.String:
		v.SetString(v.String() + "x")
	case reflect.Slice:
		v.Set(reflect.Append(v, reflect.ValueOf("x")))
	case reflect.Ptr:
		v.Set(reflect.New(v.Type().Elem()))
	case reflect.Int:
		v.SetInt(v.Int() + 3)
	case reflect.Uint64:
		v.SetUint(v.Uint() + 3)
	case reflect.Bool:
		v.SetBool(!v.Bool())
	default:
		t.Fatalf("cannot perturb a %v", v.Kind())
	}
}

// pinSpec is a default point spec: every sentinel left at zero.
func pinSpec() *confluence.JobSpec {
	return &confluence.JobSpec{Workload: "OLTP-DB2", Design: "Confluence"}
}

// TestJobStoreKeyPinned pins the job store keys of fixed specs: results
// already stored are filed under them, so a change that moves one must
// come with a ResultVersion bump and a new pin.
func TestJobStoreKeyPinned(t *testing.T) {
	sampled := pinSpec()
	sampled.Cores, sampled.WarmupInstr, sampled.MeasureInstr = 4, 800_000, 800_000
	sampled.SampleWindowInstr, sampled.SamplePeriodInstr, sampled.SampleWindows = 6000, 60_000, 13
	sweep := &confluence.JobSpec{Kind: confluence.KindSweep, Designs: []string{"Base1K", "Confluence"}, NoWarmup: true}
	for _, tc := range []struct {
		name string
		spec *confluence.JobSpec
		want string
	}{
		{"point/defaults", pinSpec(), "ad49438635de47fcc9d89be603316d08660d2029ff5e596c4c815828fbd09029"},
		{"point/tiny", tinySpec(), "ecb06bd815aa146e2d317920105d01cdbcd5a817a14709bfd9b737f9dc3843d8"},
		{"point/sampled", sampled, "45ecc85d8b2d0afd97b3c2234041cc2ae62fdbc436e819d9f4aa054f2a86a51f"},
		{"sweep", sweep, "0fd232fac6e5e485d6e21dc0b795d59df975152f7dee8448fb694af66ee887d3"},
	} {
		got, ok := jobStoreKey(tc.spec)
		if !ok || got != tc.want {
			t.Errorf("%s: key %s (ok=%v), pinned %s", tc.name, got, ok, tc.want)
		}
	}
}
