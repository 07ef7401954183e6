package gridspec

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"mpic"
)

func TestScenarioBuild(t *testing.T) {
	sc, err := Scenario{
		N: 4, Workload: "random", Scheme: "A",
		Noise: "random", Rate: 0.002, Seed: 7, IterFactor: 20,
		Delay: "lognormal:0.3", NetFaults: "outage=0.01,stragglers=1",
	}.Build()
	if err != nil {
		t.Fatal(err)
	}
	if sc.Topology.N != 4 || sc.Scheme != mpic.AlgorithmA || sc.Noise == nil {
		t.Fatalf("scenario not resolved: %+v", sc)
	}
	if sc.Delay == nil || sc.Faults == nil {
		t.Fatalf("network timing fields not resolved: delay=%v faults=%+v", sc.Delay, sc.Faults)
	}
	if sc.Seed != 7 {
		t.Fatalf("seed = %d, want 7", sc.Seed)
	}
}

// TestScenarioParallelIgnored: "parallel" named a send executor that no
// longer exists. Stored specs that set it must still decode under a
// strict decoder, and must build the same scenario, with the same grid
// fingerprint, as the spec without it.
func TestScenarioParallelIgnored(t *testing.T) {
	build := func(body string) mpic.Scenario {
		t.Helper()
		var s Scenario
		dec := json.NewDecoder(strings.NewReader(body))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&s); err != nil {
			t.Fatalf("%s: %v", body, err)
		}
		sc, err := s.Build()
		if err != nil {
			t.Fatalf("%s: %v", body, err)
		}
		return sc
	}
	const spec = `"topology":"ring","n":5,"scheme":"B","noise":"random","rate":0.002,"seed":3`
	with := build(`{` + spec + `,"parallel":true}`)
	without := build(`{` + spec + `}`)
	if !reflect.DeepEqual(with, without) {
		t.Fatalf("parallel changed the scenario:\n%+v\nvs\n%+v", with, without)
	}
	fp := func(sc mpic.Scenario) string {
		return mpic.Grid{Cells: []mpic.GridCell{{Scenario: sc, Trials: 2}}}.Fingerprint()
	}
	if fp(with) != fp(without) {
		t.Fatalf("parallel changed the grid fingerprint: %s vs %s", fp(with), fp(without))
	}
}

func TestScenarioBuildErrors(t *testing.T) {
	for name, s := range map[string]Scenario{
		"bad scheme":    {N: 4, Scheme: "Z"},
		"bad noise":     {N: 4, Noise: "no-such-noise"},
		"bad delay":     {N: 4, Delay: "no-such-delay"},
		"bad netfaults": {N: 4, NetFaults: "outage=not-a-number"},
	} {
		if _, err := s.Build(); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

// TestGridSpecFingerprint pins the checkpoint fingerprint byte for byte
// against the historical mpicbench format: an old sweep checkpoint must
// still match the spec this package computes for the same flags.
func TestGridSpecFingerprint(t *testing.T) {
	g := Grid{
		Workload: "random", Noise: "random",
		N: "4,6", Schemes: "A,B", Rates: "0,0.002",
		Trials: 2, Seed: 1, IterFactor: 10,
	}
	want := "topology= workload=random rounds=0 noise=random n=4,6 schemes=A,B rates=0,0.002 trials=2 seed=1 iterfactor=10"
	if got := g.Spec(); got != want {
		t.Fatalf("spec = %q, want %q", got, want)
	}
	g.Delay = "jitter:0.5"
	if got := g.Spec(); got != want+" delay=jitter:0.5 netfaults=" {
		t.Fatalf("spec with delay = %q", got)
	}
	// The default stride stays out of the fingerprint (back-compat with
	// checkpoints written before the field existed); only an override
	// joins it.
	g.Delay = ""
	g.SeedStep = 7907
	if got := g.Spec(); got != want {
		t.Fatalf("default seedstep changed the spec: %q", got)
	}
	g.SeedStep = 100
	if got := g.Spec(); got != want+" seedstep=100" {
		t.Fatalf("spec with seedstep = %q", got)
	}
}

func TestGridSweepAxes(t *testing.T) {
	sw, err := Grid{
		Workload: "random", Noise: "random",
		N: "4,6", Schemes: "A,B", Rates: "0,0.002",
		Delay: "unit,jitter:0.5", Trials: 3, Seed: 1, IterFactor: 10,
	}.Sweep()
	if err != nil {
		t.Fatal(err)
	}
	if len(sw.N) != 2 || len(sw.Schemes) != 2 || len(sw.Rates) != 2 || len(sw.Delays) != 2 {
		t.Fatalf("axes = n:%d schemes:%d rates:%d delays:%d, want 2 each",
			len(sw.N), len(sw.Schemes), len(sw.Rates), len(sw.Delays))
	}
	if sw.SeedStep != 7907 {
		t.Fatalf("default seed step = %d, want 7907", sw.SeedStep)
	}
	// Rates only apply when there is a noise model to take them.
	sw, err = Grid{Workload: "random", Noise: "none", N: "4", Rates: "0.001", Trials: 1, IterFactor: 10}.Sweep()
	if err != nil {
		t.Fatal(err)
	}
	if sw.Rates != nil {
		t.Fatalf("noiseless sweep kept a rate axis: %v", sw.Rates)
	}
}

func TestGridBuild(t *testing.T) {
	g := Grid{Workload: "random", Noise: "random", N: "4", Schemes: "A",
		Rates: "0,0.001", Trials: 1, Seed: 1, IterFactor: 10}
	grid, err := g.Build()
	if err != nil {
		t.Fatal(err)
	}
	if len(grid.Cells) != 2 {
		t.Fatalf("grid has %d cells, want 2", len(grid.Cells))
	}
	if grid.Spec != g.Spec() {
		t.Fatalf("grid spec %q != fingerprint %q", grid.Spec, g.Spec())
	}
}

func TestGridSweepErrors(t *testing.T) {
	for name, g := range map[string]Grid{
		"empty n":    {Workload: "random", Trials: 1},
		"bad n":      {N: "4,x", Workload: "random", Trials: 1},
		"bad rates":  {N: "4", Rates: "0,x", Workload: "random", Trials: 1},
		"bad scheme": {N: "4", Schemes: "Z", Workload: "random", Trials: 1},
		"bad delay":  {N: "4", Delay: "no-such-delay", Workload: "random", Trials: 1},
	} {
		if _, err := g.Sweep(); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

func TestGridNormalizeDefaults(t *testing.T) {
	g := Grid{}.Normalize()
	if g.Workload != "random" || g.Noise != "random" || g.N != "4,6" ||
		g.Schemes != "A" || g.Rates != "0.001" || g.Trials != 10 ||
		g.Seed != 1 || g.IterFactor != 30 {
		t.Fatalf("defaults = %+v", g)
	}
	// Normalize never overrides an explicit value.
	g = Grid{N: "8", Trials: 2}.Normalize()
	if g.N != "8" || g.Trials != 2 {
		t.Fatalf("explicit values overridden: %+v", g)
	}
	if _, err := g.Build(); err != nil {
		t.Fatalf("normalized default grid does not build: %v", err)
	}
}

func TestParseHelpers(t *testing.T) {
	if ns, err := ParseInts(" 4, 6 "); err != nil || len(ns) != 2 || ns[0] != 4 || ns[1] != 6 {
		t.Fatalf("ParseInts = %v, %v", ns, err)
	}
	if _, err := ParseInts("4,x"); err == nil {
		t.Error("bad int accepted")
	}
	if fs, err := ParseFloats("0, 0.002"); err != nil || len(fs) != 2 || fs[1] != 0.002 {
		t.Fatalf("ParseFloats = %v, %v", fs, err)
	}
	if sch, err := ParseSchemes("A,1"); err != nil || len(sch) != 2 || sch[0] != mpic.AlgorithmA {
		t.Fatalf("ParseSchemes = %v, %v", sch, err)
	}
	if _, err := ParseSchemes("A,Z"); err == nil {
		t.Error("bad scheme accepted")
	}
	if _, err := (Grid{N: "", Workload: "random"}).Sweep(); err == nil || !strings.Contains(err.Error(), "n:") {
		t.Error("empty n accepted")
	}
}
