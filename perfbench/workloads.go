package main

import (
	"fmt"

	"mpic"
	"mpic/internal/core"
)

// eps is the paper's noise constant ε, the value internal/experiments
// uses for its Table 1 regeneration. Scheme A runs at ε/m, scheme B at
// ε/(m·log m), with log m = Log2Ceil(m) floored at 1.
const eps = 0.01

func rateA(g *mpic.Graph) float64 { return eps / float64(g.M()) }

func rateB(g *mpic.Graph) float64 {
	logm := core.Log2Ceil(g.M())
	if logm < 1 {
		logm = 1
	}
	return eps / (float64(g.M()) * float64(logm))
}

// workload is one benchmark input family. A run executes batches of
// scenarios back to back (a closed loop with one client); every input is
// generated from the seed base, so the library only ever receives
// generated scenarios.
type workload struct {
	name string
	// batch is the number of scenarios in one batch: runs executed one
	// after another through Runner.Run, or the cells of one grid pass.
	batch int
	// grid marks the session workload, whose batches are grid passes run
	// by in-process RunGridSharded workers over one DirLeaseStore.
	grid bool
	// scenario builds the k-th scenario of a batch (k < batch) at the
	// given scenario seed.
	scenario func(k int, seed int64) mpic.Scenario
}

// mustTopology builds a registered topology; the workloads need its edge
// count m for their noise rates.
func mustTopology(name string, n int) *mpic.Graph {
	g, err := mpic.NewTopology(name, n)
	if err != nil {
		panic(fmt.Sprintf("perfbench: topology %s(%d): %v", name, n, err))
	}
	return g
}

// small selects the reduced sizes the self-tests run; the benchmark
// itself always runs the full sizes.
func workloads(small bool) []*workload {
	cliqueN, lineN, ringN, gridReps := 24, 32, 16, 10
	if small {
		cliqueN, lineN, ringN, gridReps = 6, 8, 6, 1
	}
	clique := mustTopology("clique", cliqueN)
	line := mustTopology("line", lineN)
	return []*workload{
		{
			name:  "clique24-insdel",
			batch: 2,
			scenario: func(_ int, seed int64) mpic.Scenario {
				return mpic.Scenario{
					Topology: mpic.Clique(cliqueN),
					Workload: mpic.RandomTraffic(0),
					Scheme:   mpic.AlgorithmA,
					Noise:    mpic.RandomNoise(rateA(clique)),
					Seed:     seed,
				}
			},
		},
		{
			name:  "line32-insdel",
			batch: 3,
			scenario: func(_ int, seed int64) mpic.Scenario {
				// Scheme B at ε/m, not its paper rate ε/(m·log m): the
				// heavier noise load is the point of this workload.
				return mpic.Scenario{
					Topology: mpic.Line(lineN),
					Workload: mpic.RandomTraffic(0),
					Scheme:   mpic.AlgorithmB,
					Noise:    mpic.RandomNoise(rateA(line)),
					Seed:     seed,
				}
			},
		},
		{
			name:  "ring16-timed",
			batch: 12,
			scenario: func(_ int, seed int64) mpic.Scenario {
				return mpic.Scenario{
					Topology: mpic.Ring(ringN),
					Workload: mpic.RandomTraffic(0),
					Scheme:   mpic.AlgorithmA,
					Delay:    mpic.JitterDelay(0.3),
					Faults:   &mpic.NetFaults{SpikeRate: 0.001, SpikeDelay: 2},
					Seed:     seed,
				}
			},
		},
		sessionWorkload(gridReps),
	}
}

// sessionWorkload is the grid of small cells: every (topology, n,
// scheme) combination, repeated reps times with distinct seeds, each
// scheme at its paper rate.
func sessionWorkload(reps int) *workload {
	type combo struct {
		topo   string
		n      int
		scheme mpic.Scheme
		rate   float64
	}
	var combos []combo
	for _, topo := range []string{"line", "ring", "star", "tree"} {
		for _, n := range []int{6, 8, 10} {
			g := mustTopology(topo, n)
			combos = append(combos,
				combo{topo, n, mpic.AlgorithmA, rateA(g)},
				combo{topo, n, mpic.AlgorithmB, rateB(g)})
		}
	}
	return &workload{
		name:  "session-sharded",
		batch: len(combos) * reps,
		grid:  true,
		scenario: func(k int, seed int64) mpic.Scenario {
			c := combos[k%len(combos)]
			return mpic.Scenario{
				Topology: mpic.Topology(c.topo, c.n),
				Workload: mpic.RandomTraffic(0),
				Scheme:   c.scheme,
				Noise:    mpic.RandomNoise(c.rate),
				Seed:     seed,
			}
		},
	}
}

func findWorkload(ws []*workload, name string) (*workload, error) {
	names := make([]string, len(ws))
	for i, w := range ws {
		if w.name == name {
			return w, nil
		}
		names[i] = w.name
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// scenarioSeed maps (seed base, batch, position) to the scenario seed.
// Batches never share seeds while a run stays below a million scenarios.
func scenarioSeed(base int64, batch, k, batchSize int) int64 {
	return base*1_000_000 + int64(batch*batchSize+k)
}

// warmupSeed is the fixed seed of the set-up warm-up run, kept apart from
// every seed base so set-up costs the same whatever --seed says.
const warmupSeed = -7
