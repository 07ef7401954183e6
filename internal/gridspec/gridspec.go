// Package gridspec is the one parser for scenario and grid
// specifications shared by the CLIs (cmd/mpicsim, cmd/mpicbench) and
// the grid service (cmd/mpicserve). Each spec is a flat struct of
// strings and scalars — the shape of a flag set and of a JSON request
// body alike — resolved through the library's four open registries
// (topology / workload / noise / delay), so the same field values parse
// identically whether they arrive on a command line or over HTTP.
package gridspec

import (
	"fmt"
	"strconv"
	"strings"

	"mpic"
)

// Scenario is a single-run specification — the scenario-shaping flags
// of mpicsim, by their flag names.
type Scenario struct {
	Topology        string  `json:"topology,omitempty"`
	N               int     `json:"n,omitempty"`
	Workload        string  `json:"workload,omitempty"`
	Rounds          int     `json:"rounds,omitempty"`
	Scheme          string  `json:"scheme,omitempty"`
	Noise           string  `json:"noise,omitempty"`
	Rate            float64 `json:"rate,omitempty"`
	Seed            int64   `json:"seed,omitempty"`
	IterFactor      int     `json:"iterfactor,omitempty"`
	Faithful        bool    `json:"faithful,omitempty"`
	HashMode        string  `json:"hashmode,omitempty"`
	EpochRefresh    int     `json:"epochRefresh,omitempty"`
	IncrementalHash bool    `json:"incrementalHash,omitempty"`
	Delay           string  `json:"delay,omitempty"`
	NetFaults       string  `json:"netfaults,omitempty"`
	// Parallel is accepted and ignored. It selected a round-level send
	// executor that no longer exists; the field stays so JSON specs that
	// set it still decode under DisallowUnknownFields, and it never
	// changes the built scenario.
	Parallel bool `json:"parallel,omitempty"`
}

// Build resolves the specification into a runnable mpic.Scenario
// through the legacy Config shim (so empty topology falls back to the
// workload's own default) plus the delay and net-fault parsers.
func (s Scenario) Build() (mpic.Scenario, error) {
	var sch mpic.Scheme
	if s.Scheme != "" {
		var err error
		if sch, err = mpic.ParseScheme(s.Scheme); err != nil {
			return mpic.Scenario{}, err
		}
	}
	sc, err := mpic.Config{
		Topology:        s.Topology,
		N:               s.N,
		Workload:        s.Workload,
		WorkloadRounds:  s.Rounds,
		Scheme:          sch,
		Noise:           s.Noise,
		NoiseRate:       s.Rate,
		Seed:            s.Seed,
		IterFactor:      s.IterFactor,
		Faithful:        s.Faithful,
		HashMode:        s.HashMode,
		EpochRefresh:    s.EpochRefresh,
		IncrementalHash: s.IncrementalHash,
	}.Scenario()
	if err != nil {
		return mpic.Scenario{}, err
	}
	if sc.Delay, err = mpic.ParseDelay(s.Delay); err != nil {
		return mpic.Scenario{}, err
	}
	if sc.Faults, err = mpic.ParseNetFaults(s.NetFaults); err != nil {
		return mpic.Scenario{}, err
	}
	return sc, nil
}

// defaultSeedStep is the per-trial seed stride grids run at unless the
// spec overrides it — the same prime mpicbench sweeps have always used.
const defaultSeedStep = 7907

// Grid is a cartesian grid specification — the sweep-shaping flags of
// `mpicbench -sweep`, by their flag names, with list-valued axes as
// comma-separated strings. The JSON tags make the struct double as the
// grid service's request body.
type Grid struct {
	Topology   string `json:"topology,omitempty"`
	Workload   string `json:"workload,omitempty"`
	Rounds     int    `json:"rounds,omitempty"`
	Noise      string `json:"noise,omitempty"`
	N          string `json:"n,omitempty"`
	Schemes    string `json:"schemes,omitempty"`
	Rates      string `json:"rates,omitempty"`
	Delay      string `json:"delay,omitempty"`
	NetFaults  string `json:"netfaults,omitempty"`
	Trials     int    `json:"trials,omitempty"`
	Seed       int64  `json:"seed,omitempty"`
	IterFactor int    `json:"iterfactor,omitempty"`
	// HashMode pins the sweep's prefix-hash seed discipline ("epoch",
	// "legacy", "incremental"); empty means the library default. Set
	// fields join the Spec fingerprint, so checkpoints from before the
	// fields existed keep theirs.
	HashMode     string `json:"hashmode,omitempty"`
	EpochRefresh int    `json:"epochRefresh,omitempty"`
	// SeedStep overrides the per-trial seed stride; 0 means the default
	// (7907). Non-default strides join the Spec fingerprint.
	SeedStep int64 `json:"seedstep,omitempty"`
}

// Normalize fills the fields a service submission may omit with the
// same defaults the mpicbench flag set declares, so an HTTP body and a
// bare `-sweep` invocation describe the same grid.
func (g Grid) Normalize() Grid {
	if g.Workload == "" {
		g.Workload = "random"
	}
	if g.Noise == "" {
		g.Noise = "random"
	}
	if g.N == "" {
		g.N = "4,6"
	}
	if g.Schemes == "" {
		g.Schemes = "A"
	}
	if g.Rates == "" {
		g.Rates = "0.001"
	}
	if g.Trials == 0 {
		g.Trials = 10
	}
	if g.Seed == 0 {
		g.Seed = 1
	}
	if g.IterFactor == 0 {
		g.IterFactor = 30
	}
	return g
}

// Spec fingerprints the grid-defining fields; a checkpoint written
// under a different spec must not be merged into this grid. The network
// timing fields join the spec only when set — and SeedStep only when it
// deviates from the default — so checkpoints from before those fields
// existed keep their fingerprints.
func (g Grid) Spec() string {
	s := fmt.Sprintf("topology=%s workload=%s rounds=%d noise=%s n=%s schemes=%s rates=%s trials=%d seed=%d iterfactor=%d",
		g.Topology, g.Workload, g.Rounds, g.Noise, g.N, g.Schemes, g.Rates, g.Trials, g.Seed, g.IterFactor)
	if g.Delay != "" || g.NetFaults != "" {
		s += fmt.Sprintf(" delay=%s netfaults=%s", g.Delay, g.NetFaults)
	}
	if g.SeedStep != 0 && g.SeedStep != defaultSeedStep {
		s += fmt.Sprintf(" seedstep=%d", g.SeedStep)
	}
	if g.HashMode != "" {
		s += fmt.Sprintf(" hashmode=%s", g.HashMode)
	}
	if g.EpochRefresh != 0 {
		s += fmt.Sprintf(" epochrefresh=%d", g.EpochRefresh)
	}
	return s
}

// Sweep resolves the specification into an mpic.Sweep. The noise-rate
// axis applies only when the scenario has a noise model at all; callers
// that want to reject a useless rate axis loudly (mpicbench does, for
// an explicit -sweep-rates flag) check sw.Base.Noise themselves.
func (g Grid) Sweep() (mpic.Sweep, error) {
	ns, err := ParseInts(g.N)
	if err != nil {
		return mpic.Sweep{}, fmt.Errorf("n: %w", err)
	}
	if len(ns) == 0 {
		return mpic.Sweep{}, fmt.Errorf("n: at least one party count is required")
	}
	var rates []float64
	if g.Rates != "" {
		if rates, err = ParseFloats(g.Rates); err != nil {
			return mpic.Sweep{}, fmt.Errorf("rates: %w", err)
		}
	}
	var schemes []mpic.Scheme
	if g.Schemes != "" {
		if schemes, err = ParseSchemes(g.Schemes); err != nil {
			return mpic.Sweep{}, fmt.Errorf("schemes: %w", err)
		}
	}
	// Resolve the names exactly like mpicsim does — through the legacy
	// Config shim — so an empty topology falls back to the workload's
	// own default (fixed-topology workloads included).
	base, err := mpic.Config{
		Topology: g.Topology,
		N:        ns[0],
		Workload: g.Workload, WorkloadRounds: g.Rounds,
		Noise:        g.Noise,
		Seed:         g.Seed,
		IterFactor:   g.IterFactor,
		HashMode:     g.HashMode,
		EpochRefresh: g.EpochRefresh,
	}.Scenario()
	if err != nil {
		return mpic.Sweep{}, err
	}
	if base.Faults, err = mpic.ParseNetFaults(g.NetFaults); err != nil {
		return mpic.Sweep{}, err
	}
	var delays []mpic.DelaySpec
	if g.Delay != "" {
		for _, part := range strings.Split(g.Delay, ",") {
			d, err := mpic.ParseDelay(strings.TrimSpace(part))
			if err != nil {
				return mpic.Sweep{}, fmt.Errorf("delay: %w", err)
			}
			if d == nil {
				d = mpic.LockstepDelay()
			}
			delays = append(delays, d)
		}
	}
	step := g.SeedStep
	if step == 0 {
		step = defaultSeedStep
	}
	sw := mpic.Sweep{
		Base:     base,
		N:        ns,
		Schemes:  schemes,
		Delays:   delays,
		Trials:   g.Trials,
		SeedStep: step,
	}
	if base.Noise != nil {
		sw.Rates = rates
	}
	return sw, nil
}

// Build resolves the specification all the way to an mpic.Grid with its
// Spec set — ready for the engine or the lease-sharded worker loop.
func (g Grid) Build() (mpic.Grid, error) {
	sw, err := g.Sweep()
	if err != nil {
		return mpic.Grid{}, err
	}
	grid, err := sw.Grid()
	if err != nil {
		return mpic.Grid{}, err
	}
	grid.Spec = g.Spec()
	return grid, nil
}

// ParseInts parses a comma-separated integer list.
func ParseInts(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

// ParseFloats parses a comma-separated float list.
func ParseFloats(s string) ([]float64, error) {
	var out []float64
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

// ParseSchemes parses a comma-separated scheme list (1|A|B|C).
func ParseSchemes(s string) ([]mpic.Scheme, error) {
	var out []mpic.Scheme
	for _, part := range strings.Split(s, ",") {
		sch, err := mpic.ParseScheme(strings.TrimSpace(part))
		if err != nil {
			return nil, err
		}
		out = append(out, sch)
	}
	return out, nil
}
