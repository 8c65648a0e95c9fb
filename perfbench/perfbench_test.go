package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime/pprof"
	"strings"
	"sync"
	"testing"
	"time"

	"confluence"
	"confluence/internal/frontend"
)

func TestPercentileRule(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	v, ok := percentile(xs, 99)
	if !ok || v != 990 {
		t.Fatalf("p99 of 1..1000 = %v, %v; want 990 reportable (10 samples beyond)", v, ok)
	}
	if _, ok := percentile(xs[:999], 99); ok {
		t.Fatal("p99 of 999 samples has only 9 beyond it but was reportable")
	}
	if v, ok := percentile(xs[:100], 90); !ok || v != 90 {
		t.Fatalf("p90 of 100 samples = %v, %v; want 90 reportable", v, ok)
	}
	if _, ok := percentile(xs[:65], 99); ok {
		t.Fatal("p99 of 65 samples was reportable")
	}
	if m := median([]float64{3, 1, 2, 10}); m != 2.5 {
		t.Fatalf("median = %v, want 2.5", m)
	}
}

func TestDigestCheckFailsOnPerturbedStat(t *testing.T) {
	cells := func(misses uint64) []cellOut {
		return []cellOut{
			{ID: "A|Base1K", Stats: &frontend.Stats{Instructions: 1000, Cycles: 1500, L1IMisses: 7}},
			{ID: "B|Base1K", Stats: &frontend.Stats{Instructions: 1000, Cycles: 1400, L1IMisses: misses}},
		}
	}
	want, err := (&passOut{cells: cells(9)}).digests()
	if err != nil {
		t.Fatal(err)
	}
	same, _ := (&passOut{cells: cells(9)}).digests()
	if p := compareDigests("w", same, want); len(p) != 0 {
		t.Fatalf("identical stats reported as mismatching: %v", p)
	}
	perturbed, _ := (&passOut{cells: cells(10)}).digests()
	p := compareDigests("w", perturbed, want)
	if len(p) != 1 || !strings.Contains(p[0], "B|Base1K") {
		t.Fatalf("perturbed L1IMisses: problems %v, want one naming cell B|Base1K", p)
	}
	delete(perturbed, "A|Base1K")
	if p := compareDigests("w", perturbed, want); len(p) != 2 {
		t.Fatalf("missing cell plus perturbed cell: problems %v, want 2", p)
	}
}

// fakeDaemon answers the serve API: submissions of spec workloads named
// refuse get 503, jobs on the workload named fail end "failed", and every
// other job ends "done" with a one-row result naming its workload.
func fakeDaemon(refuse, fail string) http.Handler {
	var mu sync.Mutex
	workload := map[string]string{}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", func(w http.ResponseWriter, r *http.Request) {
		var spec confluence.JobSpec
		json.NewDecoder(r.Body).Decode(&spec)
		if spec.Workload == refuse {
			w.WriteHeader(http.StatusServiceUnavailable)
			io.WriteString(w, `{"error":"queue full"}`)
			return
		}
		mu.Lock()
		id := fmt.Sprintf("j%d", len(workload)+1)
		workload[id] = spec.Workload
		mu.Unlock()
		w.WriteHeader(http.StatusAccepted)
		fmt.Fprintf(w, `{"id":%q}`, id)
	})
	lookup := func(r *http.Request) string {
		mu.Lock()
		defer mu.Unlock()
		return workload[r.PathValue("id")]
	}
	mux.HandleFunc("GET /jobs/{id}/events", func(w http.ResponseWriter, r *http.Request) {
		end := "done"
		if lookup(r) == fail {
			end = "failed"
		}
		fmt.Fprintf(w, "id: 1\nevent: queued\ndata: {}\n\nid: 2\nevent: started\ndata: {}\n\nid: 3\nevent: %s\ndata: {}\n\n", end)
	})
	mux.HandleFunc("GET /jobs/{id}/result", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintf(w, `{"id":%q,"rows":[{"mix":%q}]}`, r.PathValue("id"), lookup(r))
	})
	return mux
}

func TestClosedLoopFailureCounting(t *testing.T) {
	srv := httptest.NewServer(fakeDaemon("refused", "broken"))
	defer srv.Close()
	c := newClient(srv.URL, newTracer())
	defer c.close()
	run := func(class, workload string, hit int) *jobRecord {
		rec := &jobRecord{class: class, hit: hit, spec: &confluence.JobSpec{Workload: workload, Design: "Base1K"}}
		if err := c.run(context.Background(), rec); err != nil {
			t.Fatal(err)
		}
		return rec
	}
	jobs := []*jobRecord{
		run("hit", "good", 0),    // equals its reference
		run("hit", "other", 0),   // differs from its reference
		run("hit", "refused", 0), // 503 at submission
		run("sweep", "broken", -1),
		run("sweep", "fine", -1),
	}
	if jobs[2].err == "" || jobs[3].err == "" || jobs[0].err != "" || jobs[4].err != "" {
		t.Fatalf("job errors = %q", []string{jobs[0].err, jobs[1].err, jobs[2].err, jobs[3].err, jobs[4].err})
	}
	rig := &serveRig{hitRows: []json.RawMessage{jobs[0].rows}}
	for _, j := range jobs {
		settle(j, rig)
	}
	rep := &report{metrics: map[string]float64{}}
	checkJobs(context.Background(), &env{seed: defaultSeed}, &loadOut{jobs: jobs}, rep)
	if rep.attempted != 5 || rep.failed != 3 {
		t.Fatalf("attempted %d failed %d, want 5 and 3 (mismatching hit, refused, failed job); problems %v",
			rep.attempted, rep.failed, rep.problems)
	}
	var lat []float64
	for _, j := range jobs {
		lat = append(lat, j.latencyMS())
	}
	if m := median(lat); m <= 0 || m > 1e6 {
		t.Fatalf("median latency %v: failed jobs must rank beyond every completed one", m)
	}
}

// TestLoadRecordsEveryJob drives the closed loop with several clients
// against the fake daemon (run it under -race): every completed job is
// recorded once, in the 45/45/10 mix, and the load's latency metrics
// report a p99.
func TestLoadRecordsEveryJob(t *testing.T) {
	srv := httptest.NewServer(fakeDaemon("refuse-nothing", "fail-nothing"))
	defer srv.Close()
	e := &env{seed: 7, workers: 3}
	rig := &serveRig{base: srv.URL, hits: hitSpecList(e.seed)}
	for _, h := range rig.hits {
		rig.hitRows = append(rig.hitRows, json.RawMessage(fmt.Sprintf(`[{"mix":%q}]`, h.Workload)))
	}
	lo, err := load(context.Background(), e, rig, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(lo.jobs) < minJobs || len(lo.jobs) >= minJobs+e.workers {
		t.Fatalf("%d jobs recorded, want %d to %d", len(lo.jobs), minJobs, minJobs+e.workers-1)
	}
	classes := map[string]int{}
	for _, j := range lo.jobs {
		if j.err != "" || j.mismatch {
			t.Fatalf("job failed (%q) or mismatched its reference against a daemon that does neither", j.err)
		}
		if j.rows != nil && !j.verify {
			t.Fatal("the load kept the rows of a job no check needs")
		}
		classes[j.class]++
	}
	for _, c := range serveClasses {
		share := float64(classes[c]) / float64(len(lo.jobs))
		if want := map[string]float64{"hit": .45, "miss": .45, "sweep": .10}[c]; share < want-.02 || share > want+.02 {
			t.Errorf("class %s is %.3f of jobs, want %.2f", c, share, want)
		}
	}
	m := map[string]float64{}
	stageMetrics(lo, m)
	if m["serve.jobs_per_s"] <= 0 || m["serve.job_p99_ms"] <= 0 {
		t.Fatalf("load metrics %v: want a positive job rate and a reportable p99", m)
	}
}

func TestGroupByModule(t *testing.T) {
	self := map[string]int64{
		"confluence/internal/frontend.(*Core).Step":         50,
		"confluence/internal/frontend.(*Core).FastStep":     5,
		"confluence/internal/cache.(*Cache).Lookup":         20,
		"confluence/internal/trace.(*Executor).NextBatch":   7,
		"confluence/internal/cmp.(*engine).phase":           3,
		"confluence/internal/prefetch.(*Prefetcher).Issue":  2,
		"runtime.scanobject":                                4,
		"runtime.mallocgc":                                  1,
		"runtime.futex":                                     6,
		"confluence.RunCtx":                                 1,
		"confluence/internal/flatmap.(*Map[go.shape]).Find": 8,
	}
	got := groupByModule(self)
	want := map[string]int64{"frontend": 55, "cache": 20, "trace": 7, "cmp": 3, "runtime.gc": 5, "flatmap": 8, "other": 9}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("module %s: %d ns, want %d", k, got[k], v)
		}
	}
	if len(got) != len(want) {
		t.Errorf("modules %v, want %v", got, want)
	}
}

//go:noinline
func spin(d time.Duration) int {
	n := 0
	for t := time.Now(); time.Since(t) < d; {
		for i := 0; i < 1000; i++ {
			n += i ^ n
		}
	}
	return n
}

func TestSelfTimesReadsRealProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiler unavailable:", err)
	}
	spin(300 * time.Millisecond)
	pprof.StopCPUProfile()
	self, err := selfTimes(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, ns := range self {
		total += ns
	}
	if total == 0 || self["confluence/perfbench.spin"] < total/2 {
		t.Fatalf("spin self time %d of %d ns profiled; want the majority", self["confluence/perfbench.spin"], total)
	}
}

func TestTailIdle(t *testing.T) {
	s := func(x float64) time.Duration { return time.Duration(x * float64(time.Second)) }
	done := []time.Duration{s(1), s(2), s(5), s(6), s(7), s(10)}
	// Plan one ends at 5 with its other worker idle since 2; plan two ends
	// at 10 with the other worker idle since 7.
	if got := tailIdle(done, 3, 2); got < 5.999 || got > 6.001 {
		t.Fatalf("tail idle %v, want 6 worker-seconds", got)
	}
}

// TestFastestSteps checks the figure workloads' estimator: each step at
// its least wall and CPU time over the passes, summed, and a refusal when
// passes ran their cells in different orders.
func TestFastestSteps(t *testing.T) {
	ms := func(x int) time.Duration { return time.Duration(x) * time.Millisecond }
	pass := func(labels []string, st ...stepTime) *passOut { return &passOut{steps: st, labels: labels} }
	labels := []string{"a|x", "b|x", ""}
	passes := []*passOut{
		pass(labels, stepTime{ms(100), ms(90)}, stepTime{ms(300), ms(200)}, stepTime{ms(10), ms(10)}),
		pass(labels, stepTime{ms(150), ms(80)}, stepTime{ms(250), ms(260)}, stepTime{ms(20), ms(5)}),
	}
	wall, cpu, err := fastestSteps(passes)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(wall-0.360) > 1e-9 || math.Abs(cpu-0.285) > 1e-9 {
		t.Fatalf("fastest steps sum to %v s wall, %v s CPU; want 0.360 and 0.285", wall, cpu)
	}
	passes[1].labels = []string{"b|x", "a|x", ""}
	if _, _, err := fastestSteps(passes); err == nil {
		t.Fatal("passes with their cells in different orders were combined")
	}
}

func TestSpanSelfTime(t *testing.T) {
	tr := newTracer()
	tr.spans = []span{
		{ID: 1, Name: "job", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "post", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "events", Start: 20, End: 60},
	}
	for _, st := range tr.totals() {
		if st.Name == "job" && st.Self != 50 {
			t.Fatalf("job self time %v, want 50ns (children cover 10..60)", st.Self)
		}
	}
}

// TestBenchmarkJSONMatchesMetrics keeps BENCHMARK.json's metric lists in
// step with what the benchmark reports.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	for _, w := range b.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %s is not implemented", w.Name)
		}
	}
	if len(b.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(b.Workloads), len(workloads))
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, code %d", len(b.EndToEnd), len(endToEnd))
	}
	for i, m := range b.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("end_to_end[%d] = %s/%s/%s, code %s/%s/%s", i, m.Name, m.Unit, m.Better, d.Name, d.Unit, d.Better)
		}
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, code %d", len(b.PerLayer), len(perLayer))
	}
	for i, m := range b.PerLayer {
		d := perLayer[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per_layer[%d] = %s/%s/%s, code %s/%s/%s", i, m.Name, m.Unit, m.Better, d.Name, d.Unit, d.Better)
		}
	}
}
