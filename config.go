package mpic

import (
	"fmt"

	"mpic/internal/baseline"
	"mpic/internal/core"
)

// Config describes a run in terms of registered building-block names —
// the legacy string-keyed surface, kept as a thin shim over Scenario.
// Every name is parsed through the same registries the typed specs use,
// and a Config run is bit-identical to the equivalent Scenario run (and
// to pre-Scenario releases, pinned by core's TestRunFixedSeedPinned).
// New code should build a Scenario directly.
type Config struct {
	// Topology is a registered topology family (TopologyNames lists
	// them; the built-ins are "line", "ring", "star", "clique", "tree",
	// "random"). Empty defaults to "line" — except for workloads that fix
	// their topology (see Workload), where empty selects that fixed
	// family and any other explicit value is an error.
	Topology string
	// N is the number of parties.
	N int
	// Workload is a registered workload (WorkloadNames lists them; the
	// built-ins are "random", "dense", "phase-king", "pipelined-line",
	// "tree-sum", "token-ring"). "pipelined-line", "token-ring" and
	// "phase-king" are fixed to the "line", "ring" and "clique"
	// topologies respectively.
	Workload string
	// WorkloadRounds scales the workload (defaults to 30·N).
	WorkloadRounds int
	// Scheme selects the coding scheme (default AlgorithmA).
	Scheme Scheme
	// Noise is a registered noise model (NoiseNames lists them; the
	// built-ins are "none", "random", "burst", "adaptive").
	Noise string
	// NoiseRate is the corruption budget as a fraction of total
	// communication (the paper's µ).
	NoiseRate float64
	// Seed makes the run reproducible (inputs, noise, and randomness).
	Seed int64
	// IterFactor bounds iterations at IterFactor·|Π| (default 100, the
	// paper's constant).
	IterFactor int
	// Faithful disables the oracle's early stop, running all
	// IterFactor·|Π| iterations like the paper's protocol.
	Faithful bool
	// HashMode selects the prefix-hash seed discipline by name: "epoch"
	// (or empty — the default epoch-refresh fast path), "legacy" (the
	// paper-faithful per-iteration reseeding), or "incremental" (the
	// never-refreshed checkpoint path). See core.Params.HashMode.
	HashMode string
	// EpochRefresh is the refresh interval R of the "epoch" mode in
	// iterations (0 selects the default; ignored by the other modes).
	EpochRefresh int
	// IncrementalHash routes the meeting-points prefix hashes through
	// rewind-aware incremental checkpoints: Θ(growth) hash work per
	// iteration instead of Θ(transcript), at the cost of rewind-stable
	// (rather than per-iteration fresh) prefix-hash seeds.
	//
	// Deprecated: set HashMode to "incremental" instead. On its own the
	// bool keeps working; combined with a contradictory HashMode it is a
	// HashModeConflictError.
	IncrementalHash bool
}

// Scenario parses the Config's names through the registries into the
// typed Scenario the legacy surface is a shim for. A workload with a
// fixed topology rejects a conflicting explicit Topology instead of
// silently overriding it.
func (cfg Config) Scenario() (Scenario, error) {
	n := cfg.N
	if n == 0 {
		n = 6
	}
	workloadName := cfg.Workload
	if workloadName == "" {
		workloadName = "random"
	}
	def, err := workloads.lookup(workloadName)
	if err != nil {
		return Scenario{}, err
	}
	topoName := cfg.Topology
	if def.FixedTopology != "" {
		if topoName != "" && topoName != def.FixedTopology {
			return Scenario{}, fmt.Errorf(
				"mpic: workload %q runs only on the %q topology, got explicit %q (leave Topology empty to accept the default)",
				workloadName, def.FixedTopology, topoName)
		}
		topoName = def.FixedTopology
	} else if topoName == "" {
		topoName = "line"
	}
	noise, err := Noise(cfg.Noise, cfg.NoiseRate)
	if err != nil {
		return Scenario{}, err
	}
	mode, err := ParseHashMode(cfg.HashMode)
	if err != nil {
		return Scenario{}, err
	}
	return Scenario{
		Topology:        Topology(topoName, n),
		Workload:        Workload(workloadName, cfg.WorkloadRounds),
		Scheme:          cfg.Scheme,
		Noise:           noise,
		Seed:            cfg.Seed,
		IterFactor:      cfg.IterFactor,
		Faithful:        cfg.Faithful,
		HashMode:        mode,
		EpochRefresh:    cfg.EpochRefresh,
		IncrementalHash: cfg.IncrementalHash,
	}, nil
}

// Run executes the coded simulation described by cfg and verifies it
// against a noiseless reference execution of the same workload.
func Run(cfg Config) (*Result, error) {
	sc, err := cfg.Scenario()
	if err != nil {
		return nil, err
	}
	opts, err := sc.options()
	if err != nil {
		return nil, err
	}
	return core.Run(opts)
}

// RunUncoded executes the workload of cfg directly over the noisy
// network — the fragile baseline. Only the protocol and the oblivious
// adversary are materialized; no coding-scheme state is built.
func RunUncoded(cfg Config) (*BaselineResult, error) {
	sc, err := cfg.Scenario()
	if err != nil {
		return nil, err
	}
	proto, adv, err := sc.baseline()
	if err != nil {
		return nil, err
	}
	return baseline.RunUncoded(proto, adv)
}

// RunNaiveFEC executes the workload with per-transmission repetition
// coding (an odd factor rep ≥ 1) — the feedback-free baseline. Like
// RunUncoded it materializes only the protocol and the adversary.
func RunNaiveFEC(cfg Config, rep int) (*BaselineResult, error) {
	sc, err := cfg.Scenario()
	if err != nil {
		return nil, err
	}
	proto, adv, err := sc.baseline()
	if err != nil {
		return nil, err
	}
	return baseline.RunNaiveFEC(proto, adv, rep)
}
