package main

import (
	"sort"
	"sync"
	"time"

	"mpic"
	"mpic/internal/adversary"
)

// callCounter records a per-symbol boundary (Corrupt, Delay) as a count
// and a total time. Timing every call would cost more than the calls
// themselves, so one call in sampleEvery is timed and the total is
// extrapolated from the sampled mean. A counter belongs to one run, and a
// run calls it from one goroutine.
type callCounter struct {
	calls, sampled int64
	sampledNs      int64
}

const sampleEvery = 16

func (c *callCounter) timed() bool {
	c.calls++
	return c.calls%sampleEvery == 0
}

// nsPerCall is the sampled mean with the clock's own cost taken off.
func (c *callCounter) nsPerCall(clockNs float64) float64 {
	if c.sampled == 0 {
		return 0
	}
	return max(0, float64(c.sampledNs)/float64(c.sampled)-clockNs)
}

func (c *callCounter) add(o callCounter) {
	c.calls += o.calls
	c.sampled += o.sampled
	c.sampledNs += o.sampledNs
}

// clockCost measures what one time.Now/time.Since pair adds to a timed
// call, as the median of many empty pairs.
func clockCost() float64 {
	const n = 4001
	ds := make([]float64, n)
	for i := range ds {
		t0 := time.Now()
		ds[i] = float64(time.Since(t0))
	}
	sort.Float64s(ds)
	return ds[n/2]
}

// countingAdversary forwards every Adversary call and the optional
// ContextAware hook, so budgeted noise sees the same context it would
// unwrapped.
type countingAdversary struct {
	inner mpic.Adversary
	c     *callCounter
}

func (a *countingAdversary) Corrupt(round int, l mpic.Link, sent mpic.Symbol) mpic.Symbol {
	if !a.c.timed() {
		return a.inner.Corrupt(round, l, sent)
	}
	t0 := time.Now()
	s := a.inner.Corrupt(round, l, sent)
	a.c.sampledNs += int64(time.Since(t0))
	a.c.sampled++
	return s
}

// SetContext implements adversary.ContextAware.
func (a *countingAdversary) SetContext(ctx adversary.Context) {
	if ca, ok := a.inner.(adversary.ContextAware); ok {
		ca.SetContext(ctx)
	}
}

// countingNoise wraps a noise spec (nil meaning the noiseless channel) so
// every adversary it wires counts its Corrupt calls into c.
func countingNoise(inner mpic.NoiseSpec, c *callCounter) mpic.NoiseSpec {
	name := "none"
	if inner != nil {
		name = inner.NoiseName()
	}
	return mpic.NoiseFunc(name, func(env mpic.NoiseEnv) (mpic.WiredNoise, error) {
		wn := mpic.WiredNoise{Adversary: adversary.None{}}
		if inner != nil {
			var err error
			if wn, err = inner.Wire(env); err != nil {
				return wn, err
			}
		}
		if wn.Adversary != nil {
			wn.Adversary = &countingAdversary{inner: wn.Adversary, c: c}
		}
		if f := wn.Factory; f != nil {
			wn.Factory = func(info mpic.RunInfo) mpic.Adversary {
				return &countingAdversary{inner: f(info), c: c}
			}
		}
		return wn, nil
	})
}

// countingDelay forwards a delay model, Lockstep included: a lockstep
// model keeps the engine on its synchronous path, which never calls
// Delay.
type countingDelay struct {
	inner mpic.DelayModel
	c     *callCounter
}

func (d *countingDelay) Delay(round int, l mpic.Link) float64 {
	if !d.c.timed() {
		return d.inner.Delay(round, l)
	}
	t0 := time.Now()
	v := d.inner.Delay(round, l)
	d.c.sampledNs += int64(time.Since(t0))
	d.c.sampled++
	return v
}

func (d *countingDelay) Lockstep() bool { return d.inner.Lockstep() }

// countingDelaySpec wraps a delay spec (nil meaning lockstep).
type countingDelaySpec struct {
	inner mpic.DelaySpec
	c     *callCounter
}

func (s countingDelaySpec) DelayName() string { return s.inner.DelayName() }

func (s countingDelaySpec) Wire(env mpic.DelayEnv) (mpic.DelayModel, error) {
	m, err := s.inner.Wire(env)
	if err != nil || m == nil {
		return m, err
	}
	return &countingDelay{inner: m, c: s.c}, nil
}

// probe is the traced run's per-run recorder: the adversary and delay
// counters plus an Observer that times the preamble and every iteration.
type probe struct {
	adv, delay callCounter
	started    time.Time
	last       time.Time
	preamble   time.Duration
	iterNs     []float64
}

func (p *probe) RunStarted(mpic.RunInfo) { p.started = time.Now() }

func (p *probe) IterationDone(mpic.IterationStats) {
	now := time.Now()
	if p.last.IsZero() {
		p.preamble = now.Sub(p.started)
	} else {
		p.iterNs = append(p.iterNs, float64(now.Sub(p.last)))
	}
	p.last = now
}

// instrument returns the scenario with the probe attached: counting
// wrappers around its noise and delay, and the probe as an observer.
// Observers cannot influence a run and the wrappers forward every hook,
// so the traced run's results must equal the untraced run's.
func instrument(sc mpic.Scenario, p *probe) mpic.Scenario {
	sc.Noise = countingNoise(sc.Noise, &p.adv)
	delay := sc.Delay
	if delay == nil {
		delay = mpic.LockstepDelay()
	}
	sc.Delay = countingDelaySpec{inner: delay, c: &p.delay}
	sc.Observers = append(append([]mpic.Observer(nil), sc.Observers...), p)
	return sc
}

// timedStore forwards every LeaseStore method to the wrapped store and
// records each call's duration. Claim also notes when each cell was
// handed out, so SaveCell can time the cell's execution in between.
type timedStore struct {
	inner mpic.LeaseStore

	mu        sync.Mutex
	opMs      map[string][]float64 // method → call durations
	claims    int
	claimHits int
	claimedAt map[int]time.Time
	cellMs    []float64
}

func newTimedStore(inner mpic.LeaseStore) *timedStore {
	return &timedStore{inner: inner, opMs: map[string][]float64{}, claimedAt: map[int]time.Time{}}
}

func (s *timedStore) record(op string, t0 time.Time) {
	d := time.Since(t0)
	s.mu.Lock()
	s.opMs[op] = append(s.opMs[op], float64(d)/1e6)
	s.mu.Unlock()
}

func (s *timedStore) Load(spec string) ([]mpic.StoredCell, error) {
	defer s.record("load", time.Now())
	return s.inner.Load(spec)
}

func (s *timedStore) Save(spec string, cells []mpic.StoredCell) error {
	defer s.record("save", time.Now())
	return s.inner.Save(spec, cells)
}

func (s *timedStore) Claim(spec, worker string, total, limit int, ttl time.Duration) ([]int, int, error) {
	t0 := time.Now()
	claimed, pending, err := s.inner.Claim(spec, worker, total, limit, ttl)
	s.record("claim", t0)
	now := time.Now()
	s.mu.Lock()
	s.claims++
	if len(claimed) > 0 {
		s.claimHits++
	}
	for _, c := range claimed {
		s.claimedAt[c] = now
	}
	s.mu.Unlock()
	return claimed, pending, err
}

func (s *timedStore) Renew(spec, worker string, ttl time.Duration) error {
	defer s.record("renew", time.Now())
	return s.inner.Renew(spec, worker, ttl)
}

func (s *timedStore) Release(spec, worker string) error {
	defer s.record("release", time.Now())
	return s.inner.Release(spec, worker)
}

func (s *timedStore) SaveCell(spec, worker string, cell mpic.StoredCell) error {
	t0 := time.Now()
	s.mu.Lock()
	if at, ok := s.claimedAt[cell.Index]; ok {
		s.cellMs = append(s.cellMs, float64(t0.Sub(at))/1e6)
		delete(s.claimedAt, cell.Index)
	}
	s.mu.Unlock()
	defer s.record("savecell", t0)
	return s.inner.SaveCell(spec, worker, cell)
}

func (s *timedStore) MarkFailed(spec, worker string, failure mpic.FailedCell) error {
	defer s.record("markfailed", time.Now())
	return s.inner.MarkFailed(spec, worker, failure)
}

func (s *timedStore) Failures(spec string) ([]mpic.FailedCell, error) {
	defer s.record("failures", time.Now())
	return s.inner.Failures(spec)
}
