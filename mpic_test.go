package mpic

import (
	"testing"
)

func TestRunDefaultsNoiseless(t *testing.T) {
	res, err := Run(Config{Seed: 1, IterFactor: 20})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Success {
		t.Fatalf("default noiseless run failed: G*=%d/%d", res.GStar, res.NumChunks)
	}
}

func TestRunAllWorkloads(t *testing.T) {
	tests := []struct {
		name string
		cfg  Config
	}{
		{"random/line", Config{Topology: "line", N: 4, Workload: "random", Seed: 2, IterFactor: 20}},
		{"random/star", Config{Topology: "star", N: 5, Workload: "random", Seed: 2, IterFactor: 20}},
		{"pipelined-line", Config{N: 4, Workload: "pipelined-line", Seed: 3, IterFactor: 20, WorkloadRounds: 40}},
		{"tree-sum", Config{Topology: "tree", N: 6, Workload: "tree-sum", Seed: 4, IterFactor: 20, WorkloadRounds: 60}},
		{"token-ring", Config{N: 5, Workload: "token-ring", Seed: 5, IterFactor: 20, WorkloadRounds: 25}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			res, err := Run(tt.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Success {
				t.Fatalf("run failed: G*=%d/%d wrong=%d", res.GStar, res.NumChunks, res.WrongParties)
			}
		})
	}
}

func TestRunAllSchemesUnderNoise(t *testing.T) {
	for _, s := range []Scheme{Algorithm1, AlgorithmA, AlgorithmB, AlgorithmC} {
		t.Run(s.String(), func(t *testing.T) {
			res, err := Run(Config{
				Topology: "line", N: 4, Scheme: s,
				Noise: "random", NoiseRate: 0.001,
				Seed: 7, IterFactor: 50,
			})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Success {
				t.Fatalf("%v failed under light noise: G*=%d/%d", s, res.GStar, res.NumChunks)
			}
		})
	}
}

func TestRunAdaptiveNoise(t *testing.T) {
	res, err := Run(Config{
		Topology: "ring", N: 4, Scheme: AlgorithmB,
		Noise: "adaptive", NoiseRate: 0.0005,
		Seed: 11, IterFactor: 60,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Success {
		t.Fatalf("AlgorithmB failed under adaptive noise: G*=%d/%d", res.GStar, res.NumChunks)
	}
}

func TestRunValidation(t *testing.T) {
	if _, err := Run(Config{Topology: "nope", N: 4}); err == nil {
		t.Error("bad topology accepted")
	}
	if _, err := Run(Config{Workload: "nope", N: 4}); err == nil {
		t.Error("bad workload accepted")
	}
	if _, err := Run(Config{Noise: "nope", N: 4}); err == nil {
		t.Error("bad noise accepted")
	}
}

func TestBaselinesViaFacade(t *testing.T) {
	cfg := Config{Topology: "line", N: 4, Seed: 9}
	ub, err := RunUncoded(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !ub.Success {
		t.Error("noiseless uncoded baseline failed")
	}
	fec, err := RunNaiveFEC(cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !fec.Success {
		t.Error("noiseless FEC baseline failed")
	}
	if _, err := RunNaiveFEC(cfg, 2); err == nil {
		t.Error("even repetition accepted")
	}
	cfg.Noise = "adaptive"
	if _, err := RunUncoded(cfg); err == nil {
		t.Error("adaptive baseline should be rejected")
	}
}

func TestNewTopologyAndWorkload(t *testing.T) {
	g, err := NewTopology("ring", 5)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewWorkload("random", g, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if p.Graph().N() != 5 {
		t.Error("workload graph wrong")
	}
	if _, err := NewWorkload("nope", g, 10, 1); err == nil {
		t.Error("unknown workload accepted")
	}
}

func TestFaithfulModeRunsAllIterations(t *testing.T) {
	cfg := Config{Topology: "line", N: 3, Seed: 13, IterFactor: 5, Faithful: true, WorkloadRounds: 30}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations != 5*res.NumChunks {
		t.Fatalf("faithful mode ran %d iterations, want %d", res.Iterations, 5*res.NumChunks)
	}
	if !res.Success {
		t.Error("faithful noiseless run failed")
	}
}
