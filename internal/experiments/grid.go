package experiments

import (
	"context"

	"confluence/internal/core"
	"confluence/internal/frontend"
	"confluence/internal/parallel"
	"confluence/internal/synth"
)

// Cell is one point of the evaluation grid: a workload mix simulated on a
// design point under specific options (a homogeneous cell is a one-slot
// mix). Cells are self-contained and individually seeded, so any subset can
// run concurrently.
type Cell struct {
	Mix    []*synth.Workload
	Design core.DesignPoint
	Opt    core.Options
}

// Plan collects the cells a figure or table needs, deduplicating them
// through the runner's cache key, and executes them on a bounded worker
// pool. Execution only warms the runner's memo cache; callers then read
// results back (Runner.Run / Plan.Stats) in whatever canonical order their
// output demands, so tables never depend on completion order.
type Plan struct {
	r     *Runner
	cells []Cell
	seen  map[string]struct{}
}

// NewPlan starts an empty plan on the runner.
func (r *Runner) NewPlan() *Plan {
	return &Plan{r: r, seen: make(map[string]struct{})}
}

// Grid returns a plan covering the full cross product of the runner's
// workloads and the given design points at default options — the common
// shape of the paper's figures.
func (r *Runner) Grid(designs []core.DesignPoint) *Plan {
	p := r.NewPlan()
	for _, w := range r.Workloads {
		for _, dp := range designs {
			p.AddDefault(w, dp)
		}
	}
	return p
}

// Add schedules one homogeneous cell, dropping duplicates of cells already
// planned.
func (p *Plan) Add(w *synth.Workload, dp core.DesignPoint, opt core.Options) {
	p.AddMix([]*synth.Workload{w}, dp, opt)
}

// AddMix schedules one consolidated cell (core i runs mix[i mod len(mix)]),
// dropping duplicates of cells already planned (cells without a cell key
// are never duplicates).
func (p *Plan) AddMix(mix []*synth.Workload, dp core.DesignPoint, opt core.Options) {
	if key, ok := p.r.cellStoreKey(mix, dp, opt); ok {
		if _, dup := p.seen[key]; dup {
			return
		}
		p.seen[key] = struct{}{}
	}
	p.cells = append(p.cells, Cell{Mix: mix, Design: dp, Opt: opt})
}

// AddDefault schedules a cell with the runner's default options.
func (p *Plan) AddDefault(w *synth.Workload, dp core.DesignPoint) {
	p.Add(w, dp, p.r.options())
}

// Len returns the number of distinct cells planned.
func (p *Plan) Len() int { return len(p.cells) }

// Execute simulates every planned cell on at most Runner.Workers
// goroutines, populating the runner's memo cache. The first simulation
// error cancels the remaining cells and is returned.
func (p *Plan) Execute(ctx context.Context) error {
	return parallel.ForEach(ctx, p.r.workers(), len(p.cells),
		func(ctx context.Context, i int) error {
			c := p.cells[i]
			_, _, err := p.r.RunMixCtx(ctx, c.Mix, c.Design, c.Opt)
			return err
		})
}

// Stats executes the plan and returns results in cell insertion order —
// the deterministic, completion-order-independent view of the grid. Each
// cell runs once, keyless cells included.
func (p *Plan) Stats(ctx context.Context) ([]*frontend.Stats, error) {
	out := make([]*frontend.Stats, len(p.cells))
	err := parallel.ForEach(ctx, p.r.workers(), len(p.cells),
		func(ctx context.Context, i int) error {
			c := p.cells[i]
			st, _, err := p.r.RunMixCtx(ctx, c.Mix, c.Design, c.Opt)
			out[i] = st
			return err
		})
	if err != nil {
		return nil, err
	}
	return out, nil
}
