package main

import (
	"context"
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"testing"
	"time"

	"mpic"
	"mpic/internal/adversary"
)

// smallOptions runs a workload at the self-test sizes, with no golden
// data (the small inputs share keys with the full-size golden files).
func smallOptions(t *testing.T, workload string, trace bool) options {
	return options{
		workload:  workload,
		seed:      1,
		seconds:   0.001,
		trace:     trace,
		workdir:   t.TempDir(),
		goldenDir: t.TempDir(),
		small:     true,
		setups:    1,
		minRuns:   1,
	}
}

func newSmallBench(t *testing.T, workload string) *bench {
	t.Helper()
	o := smallOptions(t, workload, false)
	w, err := findWorkload(workloads(true), workload)
	if err != nil {
		t.Fatal(err)
	}
	return &bench{o: o, w: w, gold: &golden{Workload: w.name, Batches: map[string]string{}},
		runner: mpic.NewRunner(), workdir: o.workdir, rep: &report{workload: w.name, m: newMetrics()}}
}

func TestTracedDigestsMatchUntraced(t *testing.T) {
	for _, w := range workloads(true) {
		t.Run(w.name, func(t *testing.T) {
			b := newSmallBench(t, w.name)
			defer b.runner.Close()
			bt, err := b.prepare(0)
			if err != nil {
				t.Fatal(err)
			}
			var digests []string
			for _, traced := range []bool{false, true} {
				out, err := b.execute(context.Background(), bt, traced)
				if err != nil {
					t.Fatal(err)
				}
				b.check(bt, out)
				digests = append(digests, out.digest)
			}
			if len(b.rep.incorrect) > 0 {
				t.Fatalf("incorrect outputs: %v", b.rep.incorrect)
			}
			if b.rep.failed > 0 {
				t.Fatalf("%d runs returned errors", b.rep.failed)
			}
			if digests[0] != digests[1] {
				t.Fatalf("traced digest %s != untraced %s", digests[1], digests[0])
			}
		})
	}
}

// benchmarkNames reads the metric names BENCHMARK.json declares.
func benchmarkNames(t *testing.T) (endToEnd, perLayer []string) {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	for _, m := range spec.EndToEnd {
		endToEnd = append(endToEnd, m.Name)
	}
	for _, m := range spec.PerLayer {
		perLayer = append(perLayer, m.Name)
	}
	sort.Strings(endToEnd)
	sort.Strings(perLayer)
	return endToEnd, perLayer
}

func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	endToEnd, perLayer := benchmarkNames(t)
	valid := regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)
	for _, w := range workloads(true) {
		for _, trace := range []bool{false, true} {
			rep, err := benchmark(context.Background(), smallOptions(t, w.name, trace))
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			if len(rep.incorrect) > 0 {
				t.Fatalf("%s trace=%v: incorrect outputs: %v", w.name, trace, rep.incorrect)
			}
			var got []string
			for name, v := range rep.m.vals {
				if !valid.MatchString(name) {
					t.Errorf("metric name %q", name)
				}
				if v.Unit == "" {
					t.Errorf("metric %s has no unit", name)
				}
				got = append(got, name)
			}
			for name := range rep.m.info {
				if !valid.MatchString(name) {
					t.Errorf("metric name %q", name)
				}
			}
			sort.Strings(got)
			want := endToEnd
			if trace {
				want = perLayer
			}
			if !equalStrings(got, want) {
				t.Errorf("%s trace=%v reports %v, BENCHMARK.json declares %v", w.name, trace, got, want)
			}
			if !trace {
				for _, name := range endToEnd {
					if v := rep.m.vals[name].Value; v <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, name, v)
					}
				}
			}
		}
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestTailHasTenSamplesBeyond(t *testing.T) {
	if _, _, ok := tail(make([]float64, tailBeyond)); ok {
		t.Fatalf("a tail from %d samples", tailBeyond)
	}
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{11, 21, 100, 1000} {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.ExpFloat64()
		}
		v, p, ok := tail(xs)
		if !ok {
			t.Fatalf("n=%d: no tail", n)
		}
		beyond := 0
		for _, x := range xs {
			if x > v {
				beyond++
			}
		}
		if beyond != tailBeyond {
			t.Errorf("n=%d: %d samples beyond the tail, want %d", n, beyond, tailBeyond)
		}
		if want := 100 * float64(n-tailBeyond) / float64(n); p != want {
			t.Errorf("n=%d: percentile %v, want %v", n, p, want)
		}
	}
}

// contextAdversary records the context the engine hands it.
type contextAdversary struct {
	adversary.None
	ctx adversary.Context
}

func (a *contextAdversary) SetContext(ctx adversary.Context) { a.ctx = ctx }

type fixedCC int64

func (c fixedCC) CC() int64 { return int64(c) }

func TestWrappersForward(t *testing.T) {
	inner := &contextAdversary{}
	var c callCounter
	spec := countingNoise(mpic.CustomNoise("fixed", inner), &c)
	g, err := mpic.NewTopology("line", 3)
	if err != nil {
		t.Fatal(err)
	}
	wn, err := spec.Wire(mpic.NoiseEnv{Graph: g, Rng: rand.New(rand.NewSource(1))})
	if err != nil {
		t.Fatal(err)
	}
	ca, ok := wn.Adversary.(adversary.ContextAware)
	if !ok {
		t.Fatal("wrapped adversary is not ContextAware")
	}
	ca.SetContext(fixedCC(7))
	if inner.ctx == nil || inner.ctx.CC() != 7 {
		t.Fatal("SetContext was not forwarded")
	}
	for i := 0; i < sampleEvery; i++ {
		wn.Adversary.Corrupt(i, mpic.Link{From: 0, To: 1}, mpic.Sym1)
	}
	if c.calls != sampleEvery || c.sampled != 1 {
		t.Fatalf("counted %d calls, %d timed; want %d and 1", c.calls, c.sampled, sampleEvery)
	}

	for _, tc := range []struct {
		spec     mpic.DelaySpec
		lockstep bool
	}{{mpic.LockstepDelay(), true}, {mpic.JitterDelay(0.3), false}} {
		m, err := countingDelaySpec{inner: tc.spec, c: &callCounter{}}.Wire(mpic.DelayEnv{Graph: g, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		if m.Lockstep() != tc.lockstep {
			t.Errorf("%s: wrapped Lockstep() = %v, want %v", tc.spec.DelayName(), m.Lockstep(), tc.lockstep)
		}
	}
}

// TestGoldenSeedAndHeldOutSeed runs the full-size ring workload for one
// batch: at seed base 1 the batch is checked against the golden digest
// of this commit; at a held-out seed base no golden data exists and the
// reference comparison alone must pass.
func TestGoldenSeedAndHeldOutSeed(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full-size scenarios")
	}
	for _, tc := range []struct {
		seed   int64
		golden int
	}{{1, 1}, {987654, 0}} {
		rep, err := benchmark(context.Background(), options{
			workload: "ring16-timed", seed: tc.seed, seconds: 0.001,
			workdir: t.TempDir(), goldenDir: "golden", setups: 1, minRuns: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.incorrect) > 0 {
			t.Fatalf("seed %d: incorrect outputs: %v", tc.seed, rep.incorrect)
		}
		if rep.goldenChecked != tc.golden {
			t.Errorf("seed %d: %d batches checked against golden, want %d", tc.seed, rep.goldenChecked, tc.golden)
		}
	}
}

func TestGoldenMismatchIsIncorrect(t *testing.T) {
	o := smallOptions(t, "ring16-timed", false)
	g := &golden{Workload: "ring16-timed", Batches: map[string]string{goldenKey(o.seed, 0): "0000000000000000"}}
	if err := g.save(o.goldenDir); err != nil {
		t.Fatal(err)
	}
	rep, err := benchmark(context.Background(), o)
	if err != nil {
		t.Fatal(err)
	}
	if rep.goldenChecked != 1 || len(rep.incorrect) != 1 {
		t.Fatalf("golden checked %d, incorrect %v; want one mismatch", rep.goldenChecked, rep.incorrect)
	}
}

func TestCheckOutputs(t *testing.T) {
	want := &expected{outputs: [][]byte{{1}, {2}}}
	res := &mpic.Result{Outputs: [][]byte{{1}, {3}}, WrongParties: 1}
	if err := checkOutputs(res, want); err != nil {
		t.Fatalf("consistent failed run rejected: %v", err)
	}
	res.WrongParties = 0
	if err := checkOutputs(res, want); err == nil {
		t.Fatal("WrongParties mismatch accepted")
	}
	res = &mpic.Result{Outputs: [][]byte{{1}, {2}}, Success: true}
	if err := checkOutputs(res, want); err != nil {
		t.Fatalf("correct run rejected: %v", err)
	}
}

var sink float64

func TestCPUNanosDecodesProfile(t *testing.T) {
	p, err := startProfile(true)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(300 * time.Millisecond)
	for time.Now().Before(deadline) {
		for i := 0; i < 1000; i++ {
			sink += float64(i) * 1.0001
		}
	}
	totals, err := p.stop()
	if err != nil {
		t.Fatal(err)
	}
	var all float64
	for k, v := range totals {
		found := false
		for _, b := range cpuBuckets {
			found = found || b == k
		}
		if !found {
			t.Errorf("unknown bucket %q", k)
		}
		all += v
	}
	if all <= 0 || totals["other"] <= 0 {
		t.Fatalf("no CPU time decoded: %v", totals)
	}
}

func TestBucketOf(t *testing.T) {
	for _, tc := range []struct {
		stack []string
		want  string
	}{
		{[]string{"mpic/internal/core.(*party).send.func1", "main.main"}, "core"},
		{[]string{"mpic/internal/detrand.Roll", "mpic/internal/network.FixedJitter.Delay"}, "detrand"},
		{[]string{"runtime.mapaccess1_fast64", "mpic/internal/core.(*party).Deliver"}, "mapaccess"},
		{[]string{"internal/runtime/maps.(*Map).getWithKeySmall"}, "mapaccess"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "gc"},
		{[]string{"syscall.Syscall", "os.(*File).Sync"}, "syscall"},
		{[]string{"runtime.mallocgc", "mpic/internal/core.newParty"}, "other"},
		{nil, "other"},
	} {
		if got := bucketOf(tc.stack); got != tc.want {
			t.Errorf("bucketOf(%v) = %s, want %s", tc.stack, got, tc.want)
		}
	}
}
