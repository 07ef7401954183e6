package mpic

import (
	"context"
	"fmt"

	"mpic/internal/core"
)

// Runner executes scenarios while holding run-to-run state: a shared
// arena that recycles every link's hash block buffers, so batch drivers
// (sweeps, experiment tables, services replaying many scenarios) stop
// paying the per-run seed-materialization allocations. Results are
// bit-identical to one-shot runs.
//
// A Runner is safe for concurrent use; Close releases the pooled memory
// (using the Runner afterwards is still valid — it just re-warms).
type Runner struct {
	arena *core.Arena
}

// NewRunner returns a Runner with an empty arena.
func NewRunner() *Runner { return &Runner{arena: core.NewArena()} }

// Run executes one scenario. ctx cancels the run between iterations
// (ctx.Err() is returned and the partial run is discarded); pass
// context.Background() when cancellation is not needed. A nil Runner is
// valid and runs without an arena.
func (r *Runner) Run(ctx context.Context, sc Scenario) (*Result, error) {
	opts, err := sc.options()
	if err != nil {
		return nil, err
	}
	opts.Context = ctx
	if r != nil {
		opts.Arena = r.arena
	}
	return core.Run(opts)
}

// Close drops the Runner's pooled memory.
func (r *Runner) Close() {
	if r != nil {
		r.arena.Reset()
	}
}

// RunScenario executes one scenario without a reusable Runner — the
// one-shot typed entry point.
func RunScenario(ctx context.Context, sc Scenario) (*Result, error) {
	return (*Runner)(nil).Run(ctx, sc)
}

// Sweep describes a cartesian grid of scenarios: the base scenario is
// re-run at every combination of the N, Schemes, Rates, and Delays axes
// (an empty axis keeps the base value), with Trials seeds per cell. A
// Sweep is a declarative front end to the grid engine — Grid expands it
// into cells, and Runner.Sweep executes it through Runner.RunGrid.
type Sweep struct {
	// Base is the scenario template every cell starts from.
	Base Scenario
	// N resizes Base.Topology across these party counts (the topology
	// must be a named or builder family, not an explicit graph).
	N []int
	// Schemes substitutes these coding schemes.
	Schemes []Scheme
	// Rates substitutes these noise rates into Base.Noise (which must be
	// non-nil when the axis is used).
	Rates []float64
	// Delays substitutes these flight-delay models into Base.Delay — the
	// coding-overhead-vs-latency-distribution axis. A nil entry means
	// the lockstep network, so {nil, JitterDelay(0.5)} sweeps
	// synchronous vs jittered on otherwise identical cells.
	Delays []DelaySpec
	// Trials is the number of seeds per cell (default 1); trial t runs at
	// Base.Seed + t·SeedStep.
	Trials int
	// SeedStep is the per-trial seed stride (default 1).
	SeedStep int64
	// Workers bounds how many cells execute concurrently (0 = GOMAXPROCS,
	// 1 = sequential). Cell results are bit-identical at any setting.
	Workers int
	// Retry is the per-cell retry policy the expanded grid runs under
	// (see Grid.Retry); the zero value runs each cell once.
	Retry RetryPolicy
}

// Grid expands the sweep's axes into engine cells, in the nested
// N → Schemes → Rates → Delays order Runner.Sweep has always reported,
// validating the axes up front (an unresizable topology or an un-ratable
// noise spec is rejected before anything runs).
func (sw Sweep) Grid() (Grid, error) {
	ns := sw.N
	if len(ns) == 0 {
		ns = []int{0} // sentinel: keep the base topology
	}
	schemes := sw.Schemes
	if len(schemes) == 0 {
		schemes = []Scheme{0} // sentinel: keep the base scheme
	}
	useRates := len(sw.Rates) > 0
	rates := sw.Rates
	if !useRates {
		rates = []float64{0}
	}
	if useRates && sw.Base.Noise == nil {
		return Grid{}, fmt.Errorf("mpic: Sweep.Rates needs Base.Noise to vary")
	}
	useDelays := len(sw.Delays) > 0
	delays := sw.Delays
	if !useDelays {
		delays = []DelaySpec{nil} // sentinel: keep the base delay
	}
	cells := make([]GridCell, 0, len(ns)*len(schemes)*len(rates)*len(delays))
	for _, n := range ns {
		topo := sw.Base.Topology
		if n > 0 {
			var err error
			topo, err = topo.withN(n)
			if err != nil {
				return Grid{}, err
			}
			if topo.isZero() {
				return Grid{}, fmt.Errorf("mpic: Sweep.N cannot resize an implicit topology (set Base.Topology to a named family; workload-provided protocols are fixed-size)")
			}
		}
		for _, scheme := range schemes {
			for _, rate := range rates {
				for _, delay := range delays {
					sc := sw.Base
					sc.Topology = topo
					if scheme != 0 {
						sc.Scheme = scheme
					}
					if useRates {
						sc.Noise = sw.Base.Noise.WithRate(rate)
						if sc.Noise == nil {
							return Grid{}, fmt.Errorf("mpic: noise %q cannot vary its rate (WithRate returned nil); register a rate-parameterized NoiseFamily to sweep it",
								sw.Base.Noise.NoiseName())
						}
					}
					if useDelays {
						sc.Delay = delay
					}
					key := GridKey{N: sw.Base.partyCount(topo), Scheme: sc.Scheme, Rate: rate, Delay: delayKeyName(sc.Delay)}
					if key.Scheme == 0 {
						key.Scheme = AlgorithmA
					}
					cells = append(cells, GridCell{
						Key:      key,
						Scenario: sc,
						Trials:   sw.Trials,
						SeedStep: sw.SeedStep,
					})
				}
			}
		}
	}
	return Grid{Cells: cells, Workers: sw.Workers, Retry: sw.Retry}, nil
}

// delayKeyName renders a delay spec's grid-key name; the empty string
// means the lockstep network.
func delayKeyName(d DelaySpec) string {
	if d == nil {
		return ""
	}
	return d.DelayName()
}

// SweepCell aggregates the runs of one grid point.
type SweepCell struct {
	// N, Scheme, Rate and Delay identify the cell. Rate is meaningful
	// only when the sweep's Rates axis was used; Delay is the delay
	// model's registered name ("" = lockstep).
	N      int
	Scheme Scheme
	Rate   float64
	Delay  string `json:",omitempty"`
	// Trials and Successes count runs and runs whose every party decoded
	// correctly.
	Trials    int
	Successes int
	// Blowups and Iterations hold the per-trial communication blowup and
	// executed iteration count, in trial order.
	Blowups    []float64
	Iterations []float64
	// Corruptions and Collisions total the adversary's landed corruptions
	// and the oracle-observed hash collisions across trials.
	Corruptions int64
	Collisions  int64
	// BrokenSeedLinks totals the link endpoints whose randomness exchange
	// failed across trials.
	BrokenSeedLinks int
	// WhiteBox totals the collision attacker's bookkeeping across trials
	// (zero unless Base.WhiteBoxRate was set).
	WhiteBox WhiteBoxStats
}

// Merge accumulates another cell's trials into c — the streaming
// consumers' aggregation primitive (e.g. folding per-seed grid cells
// into one total). The key fields (N, Scheme, Rate, Delay) are left untouched;
// merging cells with different keys is the caller's decision.
func (c *SweepCell) Merge(other SweepCell) {
	c.Trials += other.Trials
	c.Successes += other.Successes
	c.Blowups = append(c.Blowups, other.Blowups...)
	c.Iterations = append(c.Iterations, other.Iterations...)
	c.Corruptions += other.Corruptions
	c.Collisions += other.Collisions
	c.BrokenSeedLinks += other.BrokenSeedLinks
	c.WhiteBox.Tried += other.WhiteBox.Tried
	c.WhiteBox.Landed += other.WhiteBox.Landed
}

// SuccessRate is Successes/Trials.
func (c SweepCell) SuccessRate() float64 {
	if c.Trials == 0 {
		return 0
	}
	return float64(c.Successes) / float64(c.Trials)
}

// MeanBlowup averages the per-trial communication blowups.
func (c SweepCell) MeanBlowup() float64 { return mean(c.Blowups) }

// MeanIterations averages the per-trial executed iteration counts.
func (c SweepCell) MeanIterations() float64 { return mean(c.Iterations) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Sweep executes the grid through the streaming parallel engine (see
// Runner.RunGrid) and returns one aggregated cell per grid point, in the
// nested N → Schemes → Rates axis order. The first run error aborts the
// sweep, as does ctx cancellation.
//
// Streamed results are merged into the output by their explicit
// (n, scheme, rate) key — not by arrival order — so a parallel sweep, a
// shuffled grid, or a resumed run all assemble the same slice; cells
// with duplicate keys (e.g. a repeated N entry) fall back to definition
// order, which is well-defined because duplicate specs produce identical
// results.
func (r *Runner) Sweep(ctx context.Context, sw Sweep) ([]SweepCell, error) {
	grid, err := sw.Grid()
	if err != nil {
		return nil, err
	}
	out := make([]SweepCell, len(grid.Cells))
	slots := make(map[GridKey][]int, len(grid.Cells))
	for i, c := range grid.Cells {
		slots[c.Key] = append(slots[c.Key], i)
	}
	err = r.RunGrid(ctx, grid, func(res GridCellResult) {
		free := slots[res.Key]
		if len(free) == 0 {
			// The engine echoes the keys Grid() assigned, so every result
			// finds its slot; fall back to definition order rather than
			// panicking if that invariant is ever disturbed.
			out[res.Index] = res.Cell
			return
		}
		out[free[0]] = res.Cell
		slots[res.Key] = free[1:]
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
