// Command perfbench is the repository's benchmark. It regenerates the
// paper's Figures 1 and 6 through the experiments runner (exactly, or
// SMARTS-sampled against a fresh result store), timing every layer from
// outside through its public functions; the traced run of figures-exact
// also drives an in-process confluence-serve daemon with a closed-loop job
// mix for the serve layer.
//
//	perfbench --workload figures-exact|figures-sampled \
//	          --seed N --seconds S --trace 0|1
//
// An untraced run (--trace 0) prints the end-to-end metrics; a traced run
// (--trace 1) records spans and a CPU profile and prints the per-layer
// metrics. Either way the last line of standard output is one JSON object
// with the keys correct, attempted, failed and metrics. Output checks run
// outside the timed region; a failed check makes the run exit 1.
package main

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"
)

// defaultSeed keeps the paper's five workload profiles unchanged, so the
// committed output digests apply. Any other seed derives new profile
// seeds, sampling jitter seeds and serve job mixes from itself.
const defaultSeed = 1

// loadWorkers is the parallelism of the load: one grid worker in the timed
// passes, one closed-loop client on the traced serve load. On a shared
// host of a few vCPUs, every busy thread beyond the first is one more that
// a neighbour can stall; one leaves the other vCPUs to the Go runtime, the
// daemon's goroutines and the rest of the machine.
const loadWorkers = 1

// workloadRunner runs one named workload.
type workloadRunner func(env *env) (*report, error)

var workloads = map[string]workloadRunner{
	"figures-exact":   func(e *env) (*report, error) { return runFigures(e, false) },
	"figures-sampled": func(e *env) (*report, error) { return runFigures(e, true) },
}

// env is what a workload run gets from the command line.
type env struct {
	seed    uint64
	seconds time.Duration
	traced  bool
	workers int    // parallelism of the timed load: loadWorkers
	cores   int    // nproc, for the traced run's concurrent pass
	tmp     string // scratch directory inside the checkout, removed at exit
	out     string // directory for trace output
	tr      *tracer
	// writeDigests makes a default-seed figure run rewrite its
	// workload's entry in digestsPath before checking against it.
	writeDigests bool
}

// report is a workload run's outcome.
type report struct {
	attempted, failed int
	problems          []string // failed output checks and failed operations
	metrics           map[string]float64
	text              []string // extra lines printed before the result
}

func (r *report) fail(format string, args ...any) {
	r.failed++
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

func main() {
	os.Exit(run())
}

func run() int {
	name := flag.String("workload", "", "workload: figures-exact or figures-sampled")
	seed := flag.Uint64("seed", defaultSeed, "workload seed")
	seconds := flag.Int("seconds", 10, "length of the timed region in seconds")
	traceFlag := flag.Int("trace", 0, "1 runs the traced per-layer measurement")
	writeDigests := flag.Bool("write-digests", false, "rewrite perfbench/digests.json from this run (default seed only)")
	flag.Parse()
	wl, ok := workloads[*name]
	if !ok || *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: usage: --workload figures-exact|figures-sampled --seed N --seconds S --trace 0|1")
		return 2
	}
	if _, err := os.Stat(goldenPath); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: run from the repository root: %v\n", err)
		return 2
	}
	buildDir := os.Getenv("CARGO_TARGET_DIR")
	if buildDir == "" {
		buildDir = ".bench_build"
	}
	e := &env{
		seed:    *seed,
		seconds: time.Duration(*seconds) * time.Second,
		traced:  *traceFlag == 1,
		workers: loadWorkers,
		cores:   runtime.NumCPU(),
		out:     filepath.Join(buildDir, "perfbench"),

		writeDigests: *writeDigests,
	}
	for _, d := range []string{filepath.Join(buildDir, "tmp"), e.out} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			return 1
		}
	}
	tmp, err := os.MkdirTemp(filepath.Join(buildDir, "tmp"), "run-")
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(tmp)
	e.tmp = tmp
	if e.traced {
		e.tr = newTracer()
	}

	calib := hostCalibration()
	rep, err := wl(e)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	rep.metrics["bench.host_calib_ms"] = calib
	for _, p := range rep.problems {
		fmt.Fprintf(os.Stderr, "perfbench: FAIL: %s\n", p)
	}
	defs := endToEnd
	if e.traced {
		defs = perLayer
	}
	res := resultLine{Correct: rep.failed == 0, Attempted: rep.attempted, Failed: rep.failed,
		Metrics: make(map[string]metricOut, len(defs))}
	for _, d := range defs {
		v, ok := rep.metrics[d.Name]
		if !ok {
			fmt.Fprintf(os.Stderr, "perfbench: %s: metric %s was not measured\n", *name, d.Name)
			return 1
		}
		res.Metrics[d.Name] = metricOut{Value: v, Unit: d.Unit}
	}
	for _, line := range rep.text {
		fmt.Println(line)
	}
	printTable(defs, rep)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// printTable prints every reported metric by name with its unit, then
// the also-reported metrics the run has and the failure share.
func printTable(defs []metricDef, rep *report) {
	names := make([]string, 0, len(defs))
	for _, d := range defs {
		names = append(names, d.Name)
	}
	sort.Strings(names)
	for _, n := range names {
		u, _ := unitOf(defs, n)
		fmt.Printf("%-30s %16.6g %s\n", n, rep.metrics[n], u)
	}
	for _, d := range alsoReported {
		if v, ok := rep.metrics[d.Name]; ok && !isIn(defs, d.Name) {
			fmt.Printf("%-30s %16.6g %s\n", d.Name, v, d.Unit)
		}
	}
	frac := 0.0
	if rep.attempted > 0 {
		frac = float64(rep.failed) / float64(rep.attempted)
	}
	fmt.Printf("%-30s %16.6g (failed %d of %d attempted)\n", "fail_frac", frac, rep.failed, rep.attempted)
}

func isIn(defs []metricDef, name string) bool {
	_, ok := unitOf(defs, name)
	return ok
}

// cpuTime returns the process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// heapSampler tracks the peak live heap (the bytes the last completed GC
// marked live) while it runs, polling runtime/metrics, which does not stop
// the world. Live bytes, unlike total heap, do not swing with where a
// sample falls in the GC cycle.
type heapSampler struct {
	stop chan struct{}
	done sync.WaitGroup
	peak uint64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{})}
	h.done.Add(1)
	go func() {
		defer h.done.Done()
		s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			if v := s[0].Value.Uint64(); v > h.peak {
				h.peak = v
			}
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// finish stops the sampler and returns the peak in MB.
func (h *heapSampler) finish() float64 {
	close(h.stop)
	h.done.Wait()
	return float64(h.peak) / 1e6
}

// hostCalibration times a fixed standard-library workload (SHA-256 of 16
// MiB, then sorting 512Ki integers) three times and returns the median in
// ms. It runs no code of the repository, so no change to the program can
// move it: a shift between runs is the host's own speed changing, which
// on a shared machine can exceed the end-to-end bounds.
func hostCalibration() float64 {
	buf := make([]byte, 16<<20)
	for i := range buf {
		buf[i] = byte(splitmix(uint64(i)))
	}
	xs := make([]int, 1<<19)
	var ms []float64
	for r := 0; r < 3; r++ {
		for i := range xs {
			xs[i] = int(splitmix(uint64(i)) >> 1)
		}
		t := time.Now()
		sha256.Sum256(buf)
		sort.Ints(xs)
		ms = append(ms, float64(time.Since(t).Nanoseconds())/1e6)
	}
	return median(ms)
}

// splitmix returns a well-mixed 64-bit value derived from x.
func splitmix(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// derive returns a seed for label under the workload seed.
func derive(seed uint64, label string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(label); i++ {
		h ^= uint64(label[i])
		h *= 1099511628211
	}
	return splitmix(seed ^ splitmix(h))
}

// writeTraceOutput writes the run's spans and per-layer table to the
// output directory and returns the table's path.
func writeTraceOutput(e *env, workload string, table string) (string, error) {
	base := filepath.Join(e.out, fmt.Sprintf("%s-seed%d", workload, e.seed))
	f, err := os.Create(base + ".spans.jsonl")
	if err != nil {
		return "", err
	}
	if err := e.tr.writeJSONL(f); err != nil {
		f.Close()
		return "", err
	}
	if err := f.Close(); err != nil {
		return "", err
	}
	path := base + ".layers.txt"
	return path, os.WriteFile(path, []byte(table), 0o644)
}
