// Command perfbench is the default-path benchmark of the mpic library:
// library defaults (HashEpoch, Parallel off), lockstep and timed
// networks, n ≥ 16 on clique, line and ring, and a lease-sharded grid
// session. It drives the library only through public entry points
// (mpic.Runner.Run, Runner.RunGridSharded over a DirLeaseStore) plus the
// interfaces the library exposes for noise, delay, stores and observers.
//
// Build and run it from the repository root through the wrapper, which
// keeps the Go build cache inside the checkout:
//
//	python3 perfbench/run.py --workload clique24-insdel --seed 1 --seconds 18 --trace 0
//
// Every result is checked against protocol.RunReference and against the
// golden batch digests in perfbench/golden; any wrong output prints
// "correct": false and exits 1. See perfbench/NOTES.md.
package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sync"
	"time"

	"mpic"
)

type options struct {
	workload    string
	seed        int64
	seconds     float64
	trace       bool
	workdir     string
	goldenDir   string
	writeGolden bool
	// The self-tests shrink these: small runs the reduced workload sizes,
	// setups is how many times set-up is repeated (setup_s is the
	// median), and minRuns keeps a run going past --seconds until the
	// run-time tail has tailBeyond samples beyond it.
	small   bool
	setups  int
	minRuns int
}

func parseFlags(args []string, stderr io.Writer) (options, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	o := options{setups: 3, minRuns: tailBeyond + 1}
	var traceFlag int
	fs.StringVar(&o.workload, "workload", "", "workload name (clique24-insdel, line32-insdel, ring16-timed, session-sharded)")
	fs.Int64Var(&o.seed, "seed", 1, "seed base; every scenario seed derives from it")
	fs.Float64Var(&o.seconds, "seconds", 15, "how long to keep running batches")
	fs.IntVar(&traceFlag, "trace", 0, "1 reports the per-layer metrics of a traced run instead of the end-to-end metrics")
	fs.StringVar(&o.workdir, "workdir", filepath.Join(".bench_build", "perfbench-run"), "scratch directory for grid sessions")
	fs.StringVar(&o.goldenDir, "golden", filepath.Join("perfbench", "golden"), "directory of golden batch digests")
	fs.BoolVar(&o.writeGolden, "write-golden", false, "record this run's batch digests as golden instead of checking them")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if traceFlag != 0 && traceFlag != 1 {
		return o, fmt.Errorf("--trace must be 0 or 1, got %d", traceFlag)
	}
	o.trace = traceFlag == 1
	if o.seconds <= 0 {
		return o, fmt.Errorf("--seconds must be positive")
	}
	return o, nil
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	o, err := parseFlags(args, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	rep, err := benchmark(context.Background(), o)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	for _, msg := range rep.incorrect {
		fmt.Fprintln(stderr, "perfbench: incorrect output:", msg)
	}
	printReport(stdout, rep)
	if len(rep.incorrect) > 0 {
		return 1
	}
	return 0
}

// report is one run's outcome.
type report struct {
	workload  string
	attempted int
	// failed counts runs that returned an error (grid cells quarantined);
	// undecoded counts runs that completed but did not decode. Both
	// count in failed_share.
	failed, undecoded int
	incorrect         []string
	goldenChecked     int
	m                 *metrics
}

func printReport(w io.Writer, rep *report) {
	fmt.Fprintf(w, "workload %s: %d runs, %d errors, %d did not decode, %d batches checked against golden\n",
		rep.workload, rep.attempted, rep.failed, rep.undecoded, rep.goldenChecked)
	for _, n := range rep.m.names {
		v := rep.m.get(n)
		line := fmt.Sprintf("%-32s %14.6g %s", n, v.Value, v.Unit)
		if _, ok := rep.m.info[n]; ok {
			line = "[info] " + line
		}
		if note := rep.m.notes[n]; note != "" {
			line += "  (" + note + ")"
		}
		fmt.Fprintln(w, line)
	}
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{len(rep.incorrect) == 0, rep.attempted, rep.failed, rep.m.vals}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(out) // a map of plain numbers and strings always encodes
	w.Write(buf.Bytes())
}

// batch is one prepared batch: its scenarios and their expected outputs,
// built before the timed region.
type batch struct {
	index     int
	scenarios []mpic.Scenario
	want      []*expected
}

// outcome is one executed batch.
type outcome struct {
	results []*mpic.Result
	errs    []error
	runMs   []float64
	wall    time.Duration
	mallocs uint64
	bytes   uint64
	cpu     time.Duration
	probes  []*probe
	store   *timedStore
	// Grid passes only: cells.json size at the end and bytes written.
	cellsJSON int64
	written   int64
	profile   map[string]float64
	digest    string
}

type bench struct {
	o       options
	w       *workload
	gold    *golden
	runner  *mpic.Runner
	workdir string
	rep     *report
}

// prepare builds a batch's scenarios and their reference outputs.
func (b *bench) prepare(index int) (*batch, error) {
	bt := &batch{index: index}
	for k := 0; k < b.w.batch; k++ {
		sc := b.w.scenario(k, scenarioSeed(b.o.seed, index, k, b.w.batch))
		want, err := reference(sc, b.o.trace)
		if err != nil {
			return nil, fmt.Errorf("reference for seed %d: %w", sc.Seed, err)
		}
		bt.scenarios = append(bt.scenarios, sc)
		bt.want = append(bt.want, want)
	}
	return bt, nil
}

// setup is everything before the first timed run: the workload's specs
// and expected outputs, the scratch directory, a fresh Runner, and one
// warm-up run that fills the Runner's arena.
func (b *bench) setup(ctx context.Context) (*batch, error) {
	if err := os.MkdirAll(b.workdir, 0o755); err != nil {
		return nil, err
	}
	if b.runner != nil {
		b.runner.Close()
	}
	b.runner = mpic.NewRunner()
	if _, err := b.runner.Run(ctx, b.w.scenario(0, warmupSeed)); err != nil {
		return nil, fmt.Errorf("warm-up run: %w", err)
	}
	return b.prepare(0)
}

func benchmark(ctx context.Context, o options) (*report, error) {
	w, err := findWorkload(workloads(o.small), o.workload)
	if err != nil {
		return nil, err
	}
	gold, err := loadGolden(o.goldenDir, w.name)
	if err != nil {
		return nil, err
	}
	workdir, err := filepath.Abs(o.workdir)
	if err != nil {
		return nil, err
	}
	b := &bench{o: o, w: w, gold: gold, workdir: workdir, rep: &report{workload: w.name, m: newMetrics()}}
	defer func() {
		if b.runner != nil {
			b.runner.Close()
		}
	}()

	var setupS []float64
	var first *batch
	for i := 0; i < o.setups; i++ {
		t0 := time.Now()
		if first, err = b.setup(ctx); err != nil {
			return nil, err
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}

	if o.trace {
		err = b.traced(ctx, first)
	} else {
		err = b.untraced(ctx, first, setupS)
	}
	if err != nil {
		return nil, err
	}
	if o.writeGolden && len(b.rep.incorrect) == 0 {
		if err := gold.save(o.goldenDir); err != nil {
			return nil, err
		}
	}
	return b.rep, nil
}

// loop runs batches until --seconds have passed and at least minRuns
// runs were timed, starting from the prepared first batch.
func (b *bench) loop(ctx context.Context, first *batch, traced bool, fn func(*batch, *outcome)) error {
	start := time.Now()
	runs := 0
	for bt := first; ; {
		out, err := b.execute(ctx, bt, traced)
		if err != nil {
			return err
		}
		b.check(bt, out)
		fn(bt, out)
		runs += len(bt.scenarios)
		if time.Since(start).Seconds() >= b.o.seconds && runs >= b.o.minRuns {
			return nil
		}
		if bt, err = b.prepare(bt.index + 1); err != nil {
			return err
		}
	}
}

func (b *bench) untraced(ctx context.Context, first *batch, setupS []float64) error {
	var (
		walls, runMs        []float64
		cc, rounds          int64
		timed, cpu          time.Duration
		mallocs, allocBytes uint64
	)
	steal := stealTicks()
	start := time.Now()
	err := b.loop(ctx, first, false, func(bt *batch, out *outcome) {
		walls = append(walls, out.wall.Seconds())
		timed += out.wall
		cpu += out.cpu
		mallocs += out.mallocs
		allocBytes += out.bytes
		for i, r := range out.results {
			if r == nil {
				continue
			}
			runMs = append(runMs, out.runMs[i])
			cc += r.Metrics.CC
			rounds += int64(r.Metrics.Rounds)
		}
	})
	if err != nil {
		return err
	}
	m := b.rep.m
	n := float64(b.rep.attempted)
	sec := timed.Seconds()
	m.set("setup_s", "s", median(setupS))
	m.notes["setup_s"] = fmt.Sprintf("median of %d set-ups", len(setupS))
	m.set("allocs_per_run", "count", float64(mallocs)/n)
	m.set("alloc_mb_per_run", "MB", float64(allocBytes)/n/1e6)
	m.set("peak_rss_mb", "MB", peakRSSMB())

	// Printed, not gated: see NOTES.md for the spreads that rule them
	// out. Speed on this class of shared virtual machine moves by 10–30%
	// between runs; how long a run takes also depends on which seeds it
	// draws (a run that does not decode uses its whole iteration budget).
	// CPU time leaves out the time the host stole from the guest.
	m.setInfo("symbols_per_cpu_s", "1/s", float64(cc)/cpu.Seconds())
	// USER_HZ is 100 on Linux: a tick is 10ms of one CPU.
	stolen := float64(stealTicks()-steal) / 100 / float64(runtime.NumCPU())
	m.notes["symbols_per_cpu_s"] = fmt.Sprintf("%.0f runs in %.1f s timed; the host stole %.1f%% of each CPU meanwhile",
		n, sec, 100*stolen/time.Since(start).Seconds())
	m.setInfo("symbols_per_s", "1/s", float64(cc)/sec)
	m.setInfo("rounds_per_s", "1/s", float64(rounds)/sec)
	m.setInfo("runs_per_s", "1/s", n/sec)
	if b.w.grid {
		m.setInfo("cells_per_s", "1/s", n/sec)
	}
	m.setInfo("run_ms_p50", "ms", median(runMs))
	m.setTail("run_ms_tail", "ms", runMs, m.setInfo)
	m.setInfo("wall_s", "s", median(walls))
	m.notes["wall_s"] = fmt.Sprintf("median of %d batches of %d runs", len(walls), b.w.batch)
	m.setInfo("cpu_ms_per_run", "ms", float64(cpu)/1e6/n)
	m.setInfo("failed_share", "share", ratio(float64(b.rep.failed+b.rep.undecoded), n))
	b.noteFailedShare()
	return nil
}

func (b *bench) noteFailedShare() {
	r := b.rep
	r.m.notes["failed_share"] = fmt.Sprintf("%d of %d runs did not decode or returned an error",
		r.failed+r.undecoded, r.attempted)
}

// execute runs one batch's timed region.
func (b *bench) execute(ctx context.Context, bt *batch, traced bool) (*outcome, error) {
	if b.w.grid {
		return b.executeGrid(ctx, bt, traced)
	}
	n := len(bt.scenarios)
	out := &outcome{results: make([]*mpic.Result, n), errs: make([]error, n)}
	if traced {
		out.probes = make([]*probe, n)
	}
	err := out.measure(traced, func() {
		for i, sc := range bt.scenarios {
			if traced {
				out.probes[i] = &probe{}
				sc = instrument(sc, out.probes[i])
			}
			t0 := time.Now()
			out.results[i], out.errs[i] = b.runner.Run(ctx, sc)
			d := time.Since(t0)
			out.wall += d
			out.runMs = append(out.runMs, float64(d)/1e6)
		}
	})
	return out, err
}

// measure runs fn, the timed region of a batch, and records its
// allocations and CPU time, and its CPU profile when traced.
func (out *outcome) measure(traced bool, fn func()) error {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	prof, err := startProfile(traced)
	if err != nil {
		return err
	}
	cpu0 := cpuTime()
	fn()
	out.cpu = cpuTime() - cpu0
	if out.profile, err = prof.stop(); err != nil {
		return err
	}
	runtime.ReadMemStats(&m1)
	out.mallocs = m1.Mallocs - m0.Mallocs
	out.bytes = m1.TotalAlloc - m0.TotalAlloc
	return nil
}

// gridWorkers is the number of in-process RunGridSharded workers, one per
// core of the two-core box the benchmark was sized on.
const gridWorkers = 2

// executeGrid runs one batch as a grid session: gridWorkers workers share
// one DirLeaseStore in a fresh directory, as the grid service's workers
// do. Progress is on in every run (the service always attaches it); it
// collects each cell's result and the worker-side cell latency.
func (b *bench) executeGrid(ctx context.Context, bt *batch, traced bool) (*outcome, error) {
	n := len(bt.scenarios)
	out := &outcome{results: make([]*mpic.Result, n), errs: make([]error, n), runMs: make([]float64, n)}
	cells := make([]mpic.GridCell, n)
	if traced {
		out.probes = make([]*probe, n)
	}
	for i, sc := range bt.scenarios {
		if traced {
			out.probes[i] = &probe{}
			sc = instrument(sc, out.probes[i])
		}
		cells[i] = mpic.GridCell{Scenario: sc, Trials: 1}
	}
	dir, err := os.MkdirTemp(b.workdir, "session-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	dirStore := mpic.NewDirLeaseStore(dir)
	var store mpic.LeaseStore = dirStore
	if traced {
		out.store = newTimedStore(dirStore)
		store = out.store
	}
	grid := mpic.Grid{
		Cells:       cells,
		Spec:        fmt.Sprintf("perfbench/%s/%d/%d", b.w.name, b.o.seed, bt.index),
		OnCellError: mpic.QuarantineCells,
	}

	var mu sync.Mutex
	errs := make([]error, gridWorkers)
	err = out.measure(traced, func() {
		written := writtenBytes()
		t0 := time.Now()
		var wg sync.WaitGroup
		for wk := 0; wk < gridWorkers; wk++ {
			g := grid
			last := t0
			g.Progress = func(p mpic.GridProgress) {
				switch p.Event {
				case mpic.GridTrialDone:
					mu.Lock()
					out.results[p.Cell] = p.Result
					mu.Unlock()
				case mpic.GridCellDone:
					now := time.Now()
					mu.Lock()
					out.runMs[p.Cell] = float64(now.Sub(last)) / 1e6
					mu.Unlock()
					last = now
				}
			}
			sink := func(res mpic.GridCellResult) {
				if res.Err != nil {
					mu.Lock()
					out.errs[res.Index] = res.Err
					mu.Unlock()
				}
			}
			wg.Add(1)
			go func(wk int, g mpic.Grid) {
				defer wg.Done()
				errs[wk] = b.runner.RunGridSharded(ctx, g, store, mpic.ShardOptions{
					Worker: fmt.Sprintf("w%d", wk),
					// The default 200ms poll would leave the idle worker
					// asleep after the last cell; a short poll keeps the
					// pass wall on the work.
					Poll: 10 * time.Millisecond,
				}, sink)
			}(wk, g)
		}
		wg.Wait()
		out.wall = time.Since(t0)
		out.written = writtenBytes() - written
	})
	if err != nil {
		return nil, err
	}
	for _, err := range errs {
		var gf *mpic.GridFailure
		if err != nil && !errors.As(err, &gf) {
			return nil, fmt.Errorf("grid worker: %w", err)
		}
	}
	if traced {
		if st, err := os.Stat(dirStore.CellsPath()); err == nil {
			out.cellsJSON = st.Size()
		}
	}
	for i := range out.results {
		if out.results[i] == nil && out.errs[i] == nil {
			out.errs[i] = fmt.Errorf("cell %d produced neither a result nor an error", i)
		}
	}
	return out, nil
}

// check verifies a batch's outputs and records its outcome counts.
func (b *bench) check(bt *batch, out *outcome) {
	r := b.rep
	ds := make([][sha256.Size]byte, len(bt.scenarios))
	for i, res := range out.results {
		r.attempted++
		sc := bt.scenarios[i]
		if err := out.errs[i]; err != nil {
			r.failed++
			fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: run error: %v\n", b.w.name, sc.Seed, err)
			continue
		}
		if err := checkOutputs(res, bt.want[i]); err != nil {
			r.incorrect = append(r.incorrect, fmt.Sprintf("%s seed %d: %v", b.w.name, sc.Seed, err))
		}
		if !res.Success {
			r.undecoded++
		}
		ds[i] = digest(res)
	}
	out.digest = batchDigest(ds)
	key := goldenKey(b.o.seed, bt.index)
	if b.o.writeGolden {
		b.gold.Batches[key] = out.digest
		return
	}
	if want, ok := b.gold.Batches[key]; ok {
		r.goldenChecked++
		if want != out.digest {
			r.incorrect = append(r.incorrect, fmt.Sprintf("%s batch %s: digest %s, golden %s", b.w.name, key, out.digest, want))
		}
	}
}

// profile wraps one CPU-profile window; the zero value profiles nothing.
type profile struct {
	buf *bytes.Buffer
}

func startProfile(on bool) (profile, error) {
	if !on {
		return profile{}, nil
	}
	p := profile{buf: &bytes.Buffer{}}
	if err := pprof.StartCPUProfile(p.buf); err != nil {
		return profile{}, fmt.Errorf("cpu profile: %w", err)
	}
	return p, nil
}

// stop ends the window and returns CPU nanoseconds per bucket.
func (p profile) stop() (map[string]float64, error) {
	if p.buf == nil {
		return nil, nil
	}
	pprof.StopCPUProfile()
	return cpuNanos(p.buf.Bytes())
}
