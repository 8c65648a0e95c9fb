package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"confluence"
	"confluence/internal/core"
	"confluence/internal/serve"
)

// Serve job shape: every job simulates small cells, so per-job fixed
// costs (admission, workload build, system assembly, store and fleet
// I/O, HTTP) dominate.
const (
	jobCores     = 2
	jobWarmup    = 20_000
	jobMeasure   = 40_000
	jobFunctions = 600  // generated program size of every serve job's workload
	hitSpecs     = 20   // distinct pre-seeded specs the hit class repeats
	minJobs      = 1000 // jobs per load, so that p99 has ten samples beyond it
	verifyMisses = 6    // miss jobs re-run directly after the load
	maxLoad      = 150 * time.Second
)

// jobDesigns are the design points serve jobs draw from.
var jobDesigns = []string{
	core.Base1K.String(), core.FDP1K.String(), core.TwoLevelSHIFT.String(), core.Confluence.String(),
}

// classCycle is the job mix: every run of 20 consecutive jobs of a
// client holds exactly 9 hits, 9 misses and 2 sweeps (45/45/10), in an
// order the seed shuffles, so the mix does not drift between runs.
var classCycle = []string{
	"hit", "hit", "hit", "hit", "hit", "hit", "hit", "hit", "hit",
	"miss", "miss", "miss", "miss", "miss", "miss", "miss", "miss", "miss",
	"sweep", "sweep",
}

// pointSpec returns a point job on a freshly seeded workload.
func pointSpec(workload, design string, profileSeed uint64) *confluence.JobSpec {
	s := profileSeed
	return &confluence.JobSpec{
		Workload: workload, Design: design,
		Cores: jobCores, WarmupInstr: jobWarmup, MeasureInstr: jobMeasure,
		Profile: &confluence.ProfileTweak{Functions: jobFunctions, Seed: &s},
	}
}

// jobGen produces one client's deterministic job sequence.
type jobGen struct {
	seed   uint64
	client int
	n      int
	rng    *rand.Rand
	names  []string
	cycle  []string // the current shuffled classCycle
}

func newJobGen(seed uint64, client int) *jobGen {
	return &jobGen{seed: seed, client: client, names: confluence.PaperWorkloadNames(),
		rng: rand.New(rand.NewPCG(derive(seed, "mix"), uint64(client)))}
}

// verifyEvery is the share (1 in verifyEvery) of miss jobs whose result
// is kept for the direct-run check after the load.
const verifyEvery = 32

// next returns the next job (a hit names the index of its pre-seeded
// spec).
func (g *jobGen) next(hits []*confluence.JobSpec) *jobRecord {
	if len(g.cycle) == 0 {
		g.cycle = append([]string(nil), classCycle...)
		g.rng.Shuffle(len(g.cycle), func(i, k int) { g.cycle[i], g.cycle[k] = g.cycle[k], g.cycle[i] })
	}
	g.n++
	rec := &jobRecord{hit: -1}
	rec.class, g.cycle = g.cycle[0], g.cycle[1:]
	fresh := derive(g.seed, fmt.Sprintf("job/%d/%d", g.client, g.n))
	switch rec.class {
	case "hit":
		rec.hit = g.rng.IntN(len(hits))
		rec.spec = hits[rec.hit]
	case "miss":
		rec.spec = pointSpec(g.names[g.rng.IntN(len(g.names))], jobDesigns[g.rng.IntN(len(jobDesigns))], fresh)
		rec.verify = fresh%verifyEvery == 0
	default:
		a := g.rng.IntN(len(g.names))
		b := (a + 1 + g.rng.IntN(len(g.names)-1)) % len(g.names)
		d := g.rng.IntN(len(jobDesigns))
		e := (d + 1 + g.rng.IntN(len(jobDesigns)-1)) % len(jobDesigns)
		s := fresh
		rec.spec = &confluence.JobSpec{
			Kind:      confluence.KindSweep,
			Workloads: []string{g.names[a], g.names[b]},
			Designs:   []string{jobDesigns[d], jobDesigns[e]},
			Cores:     jobCores, WarmupInstr: jobWarmup, MeasureInstr: jobMeasure,
			Profile: &confluence.ProfileTweak{Functions: jobFunctions, Seed: &s},
		}
	}
	return rec
}

// settle checks a finished hit against its pre-seeded result, then drops
// the result rows unless the job awaits the direct-run check, so that the
// benchmark's own memory does not grow with the jobs a load completes.
func settle(rec *jobRecord, rig *serveRig) {
	if rec.err == "" && rec.class == "hit" {
		rec.mismatch = !bytes.Equal(rec.rows, rig.hitRows[rec.hit])
	}
	if !rec.verify {
		rec.rows = nil
	}
}

// hitSpecList returns the specs pre-seeded into the store.
func hitSpecList(seed uint64) []*confluence.JobSpec {
	names := confluence.PaperWorkloadNames()
	specs := make([]*confluence.JobSpec, hitSpecs)
	for i := range specs {
		specs[i] = pointSpec(names[i%len(names)], jobDesigns[i%len(jobDesigns)], derive(seed, fmt.Sprintf("hit/%d", i)))
	}
	return specs
}

// jobRecord is one job as its client observed it.
type jobRecord struct {
	class             string
	spec              *confluence.JobSpec
	hit               int
	verify            bool   // a miss kept for the direct-run check
	mismatch          bool   // a hit whose result differs from its pre-seeded one
	err               string // non-empty: the job failed or was refused
	t0                time.Time
	admitted, started time.Time
	terminal, fetched time.Time
	rows              json.RawMessage
	resultBytes       int
}

func (j *jobRecord) latencyMS() float64 {
	if j.err != "" {
		return math.Inf(1) // a failed job misses every latency limit
	}
	return float64(j.fetched.Sub(j.t0).Nanoseconds()) / 1e6
}

// client is one closed-loop load generator with its own keep-alive
// connection.
type client struct {
	base string
	hc   *http.Client
	tr   *tracer
}

func newClient(base string, tr *tracer) *client {
	t := &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true}
	return &client{base: base, hc: &http.Client{Transport: t}, tr: tr}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// run submits spec, follows its SSE stream to a terminal state and
// fetches its result, filling rec. It returns an error only for a
// failure of the benchmark's own side (bad JSON); job failures and
// refusals land in rec.err.
func (c *client) run(ctx context.Context, rec *jobRecord) error {
	body, err := json.Marshal(rec.spec)
	if err != nil {
		return err
	}
	root := c.tr.begin("job", "", 0)
	defer c.tr.end(root)
	rec.t0 = time.Now()

	id := c.tr.begin("serve.POST /jobs", "", root)
	resp, err := c.hc.Post(c.base+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		c.tr.end(id)
		rec.err = "submit: " + err.Error()
		return nil
	}
	var sum struct {
		ID string `json:"id"`
	}
	derr := json.NewDecoder(resp.Body).Decode(&sum)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	rec.admitted = time.Now()
	c.tr.end(id)
	if resp.StatusCode != http.StatusAccepted {
		rec.err = fmt.Sprintf("submit: status %d", resp.StatusCode)
		return nil
	}
	if derr != nil {
		return fmt.Errorf("decoding submit response: %w", derr)
	}
	c.tr.setReq(root, sum.ID)
	c.tr.setReq(id, sum.ID)

	id = c.tr.begin("serve.GET events", sum.ID, root)
	state, err := c.follow(ctx, sum.ID, rec)
	c.tr.end(id)
	if err != nil {
		rec.err = "events: " + err.Error()
		return nil
	}
	if state != "done" {
		rec.err = "job " + state
		return nil
	}

	id = c.tr.begin("serve.GET result", sum.ID, root)
	resp, err = c.hc.Get(c.base + "/jobs/" + sum.ID + "/result?limit=1000")
	if err != nil {
		c.tr.end(id)
		rec.err = "result: " + err.Error()
		return nil
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	rec.fetched = time.Now()
	c.tr.end(id)
	if err != nil || resp.StatusCode != http.StatusOK {
		rec.err = fmt.Sprintf("result: status %d %v", resp.StatusCode, err)
		return nil
	}
	var page struct {
		Rows json.RawMessage `json:"rows"`
	}
	if err := json.Unmarshal(data, &page); err != nil {
		return fmt.Errorf("decoding result page: %w", err)
	}
	// A copy, so the rows kept do not pin the whole response buffer.
	rec.rows, rec.resultBytes = append(json.RawMessage(nil), page.Rows...), len(data)
	return nil
}

// follow reads the job's SSE stream until it ends, noting when the
// started and terminal events arrive. It returns the terminal event type.
func (c *client) follow(ctx context.Context, id string, rec *jobRecord) (string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/jobs/"+id+"/events", nil)
	if err != nil {
		return "", err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return "", fmt.Errorf("status %d", resp.StatusCode)
	}
	state := ""
	br := bufio.NewReader(resp.Body)
	for {
		line, err := br.ReadString('\n')
		if ev, ok := strings.CutPrefix(strings.TrimSpace(line), "event: "); ok {
			switch ev {
			case "started":
				rec.started = time.Now()
			case "done", "failed", "cancelled":
				rec.terminal = time.Now()
				state = ev
			}
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			return "", err
		}
	}
	if state == "" {
		return "", fmt.Errorf("stream ended without a terminal event")
	}
	return state, nil
}

// serveRig is one in-process daemon on loopback with its store seeded.
type serveRig struct {
	srv      *serve.Server
	hs       *http.Server
	base     string
	storeDir string
	hits     []*confluence.JobSpec
	hitRows  []json.RawMessage
	served   chan error
}

// startRig starts a daemon with StoreDir and FleetDir under fresh
// directories and runs every hit spec through it once, keeping each
// result as the reference its repeats must equal.
func startRig(ctx context.Context, e *env) (*serveRig, error) {
	dir, err := os.MkdirTemp(e.tmp, "serve-")
	if err != nil {
		return nil, err
	}
	rig := &serveRig{storeDir: dir + "/store", hits: hitSpecList(e.seed), served: make(chan error, 1)}
	rig.srv = serve.New(serve.Config{
		Workers: e.workers, QueueDepth: 4 * e.workers,
		StoreDir: rig.storeDir, FleetDir: dir + "/fleet",
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		rig.srv.Close()
		return nil, err
	}
	rig.base = "http://" + ln.Addr().String()
	rig.hs = &http.Server{Handler: rig.srv.Handler()}
	go func() { rig.served <- rig.hs.Serve(ln) }()

	c := newClient(rig.base, nil)
	defer c.close()
	for i, spec := range rig.hits {
		rec := &jobRecord{class: "seed", spec: spec, hit: i}
		if err := c.run(ctx, rec); err != nil {
			rig.stop()
			return nil, err
		}
		if rec.err != "" {
			rig.stop()
			return nil, fmt.Errorf("pre-seeding hit spec %d: %s", i, rec.err)
		}
		rig.hitRows = append(rig.hitRows, rec.rows)
	}
	return rig, nil
}

// stop shuts the HTTP server and the daemon down and waits for both.
func (rig *serveRig) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	rig.hs.Shutdown(ctx)
	if err := <-rig.served; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintf(os.Stderr, "perfbench: serve: %v\n", err)
	}
	rig.srv.Close()
}

// loadOut is one closed-loop load run.
type loadOut struct {
	jobs    []*jobRecord
	elapsed time.Duration
}

// load drives the rig with e.workers closed-loop clients until minJobs
// jobs have completed.
func load(ctx context.Context, e *env, rig *serveRig, tr *tracer) (*loadOut, error) {
	var completed atomic.Int64
	perClient := make([][]*jobRecord, e.workers)
	errs := make([]error, e.workers)
	var wg sync.WaitGroup
	t0 := time.Now()
	for i := 0; i < e.workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := newClient(rig.base, tr)
			defer c.close()
			gen := newJobGen(e.seed, i)
			for time.Since(t0) < maxLoad && completed.Load() < minJobs {
				rec := gen.next(rig.hits)
				if err := c.run(ctx, rec); err != nil {
					errs[i] = err
					return
				}
				settle(rec, rig)
				perClient[i] = append(perClient[i], rec)
				completed.Add(1)
			}
		}(i)
	}
	wg.Wait()
	out := &loadOut{elapsed: time.Since(t0)}
	for i := range perClient {
		if errs[i] != nil {
			return nil, errs[i]
		}
		out.jobs = append(out.jobs, perClient[i]...)
	}
	return out, nil
}

// serveLayer is the serve layer's part of a traced run: a daemon with
// StoreDir and FleetDir, its store seeded, driven by the closed-loop job
// mix for minJobs jobs with spans recorded. It sets the serve.* metrics
// and counts every job and output check of the load in rep.
func serveLayer(ctx context.Context, e *env, rep *report) error {
	root := e.tr.begin("serve.load", "", 0)
	defer e.tr.end(root)
	rig, err := startRig(ctx, e)
	if err != nil {
		return err
	}
	defer rig.stop()
	lo, err := load(ctx, e, rig, e.tr)
	if err != nil {
		return err
	}
	stageMetrics(lo, rep.metrics)
	checkJobs(ctx, e, lo, rep)
	rep.text = append(rep.text, fmt.Sprintf("serve load: %d jobs in %.1f s, seed %d, %d clients",
		len(lo.jobs), lo.elapsed.Seconds(), e.seed, e.workers))
	return nil
}

// checkJobs counts failed jobs and hits that settle found differing from
// their pre-seeded result, then checks that a seed-chosen subset of miss
// jobs equals a direct confluence.RunCtx of the same spec.
func checkJobs(ctx context.Context, e *env, lo *loadOut, rep *report) {
	var misses []*jobRecord
	for _, j := range lo.jobs {
		rep.attempted++
		switch {
		case j.err != "":
			rep.fail("%s job: %s", j.class, j.err)
		case j.mismatch:
			rep.fail("hit job on pre-seeded spec %d: result differs from the pre-seeded result", j.hit)
		case j.verify:
			misses = append(misses, j)
		}
	}
	rng := rand.New(rand.NewPCG(derive(e.seed, "verify"), 0))
	rng.Shuffle(len(misses), func(i, k int) { misses[i], misses[k] = misses[k], misses[i] })
	for _, j := range misses[:min(verifyMisses, len(misses))] {
		rep.attempted++
		if err := verifyDirect(ctx, j); err != nil {
			rep.fail("miss job %s on %s: %v", j.spec.Workload, j.spec.Design, err)
		}
	}
}

// verifyDirect re-runs a point job through confluence.RunCtx and compares
// its stats with the served result.
func verifyDirect(ctx context.Context, j *jobRecord) error {
	cfg, err := j.spec.Config()
	if err != nil {
		return err
	}
	res, err := confluence.RunCtx(ctx, cfg)
	if err != nil {
		return err
	}
	var rows []struct {
		Stats json.RawMessage `json:"stats"`
	}
	if err := json.Unmarshal(j.rows, &rows); err != nil || len(rows) != 1 {
		return fmt.Errorf("served result is not one cell (%v)", err)
	}
	want, err := json.Marshal(res.Stats)
	if err != nil {
		return err
	}
	var got bytes.Buffer
	if err := json.Compact(&got, rows[0].Stats); err != nil {
		return err
	}
	if !bytes.Equal(got.Bytes(), want) {
		return fmt.Errorf("served stats differ from a direct run")
	}
	return nil
}

// stageMetrics sets the per-class serve stage medians, the mean result
// size, and the load's job latency median, p99 (0 when the percentile
// rule withholds it) and completion rate.
func stageMetrics(lo *loadOut, m map[string]float64) {
	ms := func(a, b time.Time) float64 { return float64(b.Sub(a).Nanoseconds()) / 1e6 }
	stages := map[string][]float64{}
	var kb []float64
	var lat []float64
	ok := 0
	for _, j := range lo.jobs {
		lat = append(lat, j.latencyMS())
		if j.err != "" {
			continue
		}
		ok++
		stages["admit."+j.class] = append(stages["admit."+j.class], ms(j.t0, j.admitted))
		stages["queue."+j.class] = append(stages["queue."+j.class], ms(j.admitted, j.started))
		stages["exec."+j.class] = append(stages["exec."+j.class], ms(j.started, j.terminal))
		stages["fetch."+j.class] = append(stages["fetch."+j.class], ms(j.terminal, j.fetched))
		kb = append(kb, float64(j.resultBytes)/1024)
	}
	for _, stage := range []string{"admit", "queue", "exec", "fetch"} {
		for _, c := range serveClasses {
			m["serve."+stage+"_ms."+c] = median(stages[stage+"."+c])
		}
	}
	m["serve.result_kb"] = mean(kb)
	m["serve.job_p50_ms"] = median(lat)
	m["serve.job_p99_ms"] = 0
	if v, ok := percentile(lat, 99); ok {
		m["serve.job_p99_ms"] = v
	}
	m["serve.jobs_per_s"] = float64(ok) / lo.elapsed.Seconds()
}
