package mpic_test

import (
	"context"
	"fmt"

	"mpic"
)

// The primary entry point: a typed Scenario executed by a Runner. The
// Runner can be reused — it keeps per-link hash buffers warm across runs
// — and honors context cancellation.
func ExampleRunner_Run() {
	runner := mpic.NewRunner()
	defer runner.Close()
	res, err := runner.Run(context.Background(), mpic.Scenario{
		Topology: mpic.Ring(5),
		Workload: mpic.RandomTraffic(60),
		Scheme:   mpic.AlgorithmA,
		Noise:    mpic.RandomNoise(0.001),
		Seed:     1,
	})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println("success:", res.Success)
	// Output:
	// success: true
}

// Runner.Sweep batches a cartesian grid — here party counts × noise
// rates — and aggregates per-cell statistics.
func ExampleRunner_Sweep() {
	runner := mpic.NewRunner()
	defer runner.Close()
	cells, err := runner.Sweep(context.Background(), mpic.Sweep{
		Base: mpic.Scenario{
			Topology:   mpic.Line(4),
			Workload:   mpic.RandomTraffic(40),
			Noise:      mpic.RandomNoise(0),
			Seed:       2,
			IterFactor: 15,
		},
		N:      []int{4, 5},
		Rates:  []float64{0, 0.001},
		Trials: 2,
	})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	noiseless := 0
	for _, c := range cells {
		if c.Rate == 0 && c.Successes == c.Trials {
			noiseless++
		}
	}
	fmt.Printf("cells: %d, noiseless cells fully successful: %d\n", len(cells), noiseless)
	// Output:
	// cells: 4, noiseless cells fully successful: 2
}

// The simplest use: protect a built-in workload over a noisy line with
// Algorithm A and check the run against the noiseless reference.
func ExampleRun() {
	res, err := mpic.Run(mpic.Config{
		Topology:  "line",
		N:         5,
		Workload:  "random",
		Scheme:    mpic.AlgorithmA,
		Noise:     "random",
		NoiseRate: 0.001,
		Seed:      1,
	})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println("success:", res.Success)
	// Output:
	// success: true
}

// Baselines run the same workload without interactive coding, for
// comparison tables.
func ExampleRunUncoded() {
	res, err := mpic.RunUncoded(mpic.Config{
		Topology: "ring",
		N:        4,
		Seed:     2,
	})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Printf("success: %v, blowup: %.0fx\n", res.Success, res.Blowup)
	// Output:
	// success: true, blowup: 1x
}

// Advanced use: explicit parameters and a custom adversary via
// RunProtocol.
func ExampleRunProtocol() {
	g, err := mpic.NewTopology("star", 5)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	proto, err := mpic.NewWorkload("random", g, 60, 3)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	params := mpic.ParamsFor(mpic.Algorithm1, g)
	params.CRSKey = 3
	// Delete 5 payload bits on the link 0→1.
	adv := mpic.NewFixedDeletions(0, 1, 10, 5)
	res, err := mpic.RunProtocol(proto, params, adv)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Printf("success: %v after %d corruptions\n",
		res.Success, res.Metrics.TotalCorruptions())
	// Output:
	// success: true after 5 corruptions
}
