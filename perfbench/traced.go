package main

import (
	"context"
	"fmt"

	"mpic/internal/channel"
	"mpic/internal/trace"
)

// layers accumulates the traced run's per-layer measurements. Counts are
// reported per run (per cell on the grid workload).
type layers struct {
	runs                       int
	runMs                      float64
	build, chunking, reference float64 // ms
	preambleMs                 float64
	iterNs                     []float64
	iterations, idle, chunks   int64
	hashCmp, hashColl          int64
	arenaHits, arenaMisses     uint64
	rounds, cc                 int64
	ccPhase                    [trace.NumPhases]int64
	adv, delay                 callCounter
	late                       int64
	makespan                   float64
	corruptions                [4]int64
	passWall                   float64 // s, grid passes
	cellMs, claimMs, saveMs    []float64
	storeMs                    float64
	claims, claimHits, renews  int
	cellsJSON, written         int64
	passes                     int
	cpu                        map[string]float64
}

func (l *layers) add(bt *batch, out *outcome) {
	for i, res := range out.results {
		if res == nil {
			continue
		}
		l.runs++
		l.runMs += out.runMs[i]
		w := bt.want[i]
		l.build += float64(w.build) / 1e6
		l.chunking += float64(w.chunking) / 1e6
		l.reference += float64(w.reference) / 1e6
		p := out.probes[i]
		l.preambleMs += float64(p.preamble) / 1e6
		l.iterNs = append(l.iterNs, p.iterNs...)
		l.adv.add(p.adv)
		l.delay.add(p.delay)
		m := res.Metrics
		l.iterations += int64(res.Iterations)
		l.idle += int64(m.IdleIterations)
		l.chunks += int64(res.NumChunks)
		l.hashCmp += m.HashComparisons
		l.hashColl += m.HashCollisions
		if a := res.Arena; a != nil {
			l.arenaHits += a.Hits
			l.arenaMisses += a.Misses
		}
		l.rounds += int64(m.Rounds)
		l.cc += m.CC
		for ph, v := range m.CCPhase {
			l.ccPhase[ph] += v
		}
		for k, v := range m.Corruptions {
			l.corruptions[k] += v
		}
		if m.Net != nil {
			l.late += m.Net.LateSymbols
			l.makespan += m.Net.Makespan
		}
	}
	if s := out.store; s != nil {
		l.passes++
		l.passWall += out.wall.Seconds()
		l.cellMs = append(l.cellMs, s.cellMs...)
		l.claims += s.claims
		l.claimHits += s.claimHits
		l.cellsJSON += out.cellsJSON
		l.written += out.written
		for _, ms := range s.opMs {
			l.storeMs += sum(ms)
		}
		l.claimMs = append(l.claimMs, s.opMs["claim"]...)
		l.saveMs = append(l.saveMs, s.opMs["savecell"]...)
		l.renews += len(s.opMs["renew"])
	}
	for k, v := range out.profile {
		if l.cpu == nil {
			l.cpu = map[string]float64{}
		}
		l.cpu[k] += v
	}
}

// traced runs the first batch untraced and then traced (their digests
// must agree; their wall ratio is trace.overhead), then keeps running
// traced batches until --seconds have passed.
func (b *bench) traced(ctx context.Context, first *batch) error {
	plain, err := b.execute(ctx, first, false)
	if err != nil {
		return err
	}
	b.check(first, plain)
	var l layers
	var overhead float64
	err = b.loop(ctx, first, true, func(bt *batch, out *outcome) {
		if bt == first {
			overhead = out.wall.Seconds() / plain.wall.Seconds()
			if out.digest != plain.digest {
				b.rep.incorrect = append(b.rep.incorrect, fmt.Sprintf(
					"%s batch 0: traced digest %s differs from untraced %s", b.w.name, out.digest, plain.digest))
			}
		}
		l.add(bt, out)
	})
	if err != nil {
		return err
	}
	b.layerMetrics(&l, overhead)
	return nil
}

func (b *bench) layerMetrics(l *layers, overhead float64) {
	m := b.rep.m
	runs := float64(l.runs)
	per := func(v float64) float64 { return ratio(v, runs) }
	clock := clockCost()

	setup := l.build + l.chunking + l.reference
	m.set("protocol.build_ms", "ms", per(l.build))
	m.set("protocol.chunking_ms", "ms", per(l.chunking))
	m.set("protocol.reference_ms", "ms", per(l.reference))
	m.set("protocol.setup_share", "share", ratio(setup, l.runMs))

	m.set("core.run_ms", "ms", per(l.runMs))
	m.set("core.preamble_ms", "ms", per(l.preambleMs))
	m.set("core.iteration_us_p50", "us", median(l.iterNs)/1e3)
	iterUs := make([]float64, len(l.iterNs))
	for i, v := range l.iterNs {
		iterUs[i] = v / 1e3
	}
	m.setTail("core.iteration_us_tail", "us", iterUs, m.set)
	m.set("core.iterations", "count", per(float64(l.iterations)))
	m.set("core.idle_iterations", "count", per(float64(l.idle)))
	m.set("core.progress_ratio", "ratio", ratio(float64(l.chunks), float64(l.iterations)))
	m.set("core.hash_comparisons", "count", per(float64(l.hashCmp)))
	m.set("core.hash_collisions", "count", per(float64(l.hashColl)))
	m.set("arena.reuse_ratio", "ratio", ratio(float64(l.arenaHits), float64(l.arenaHits+l.arenaMisses)))

	runNs := l.runMs * 1e6
	m.set("network.rounds", "count", per(float64(l.rounds)))
	m.set("network.symbols", "count", per(float64(l.cc)))
	m.set("network.symbols_per_round", "ratio", ratio(float64(l.cc), float64(l.rounds)))
	for ph := trace.Phase(0); ph < trace.NumPhases; ph++ {
		m.set("network.cc."+ph.String(), "share", ratio(float64(l.ccPhase[ph]), float64(l.cc)))
	}
	delayNs := l.delay.nsPerCall(clock)
	m.set("network.delay_calls", "count", per(float64(l.delay.calls)))
	m.set("network.delay_ns_per_call", "ns", delayNs)
	m.set("network.delay_share", "share", ratio(delayNs*float64(l.delay.calls), runNs))
	m.set("network.late_symbols", "count", per(float64(l.late)))
	m.set("network.makespan_per_round", "ratio", ratio(l.makespan, float64(l.rounds)))

	advNs := l.adv.nsPerCall(clock)
	m.set("adversary.calls", "count", per(float64(l.adv.calls)))
	m.set("adversary.ns_per_call", "ns", advNs)
	m.set("adversary.share", "share", ratio(advNs*float64(l.adv.calls), runNs))
	m.set("adversary.corruptions.sub", "count", per(float64(l.corruptions[channel.KindSubstitution])))
	m.set("adversary.corruptions.del", "count", per(float64(l.corruptions[channel.KindDeletion])))
	m.set("adversary.corruptions.ins", "count", per(float64(l.corruptions[channel.KindInsertion])))

	// Grid and store: worker time is gridWorkers × pass wall.
	workerS := float64(gridWorkers) * l.passWall
	m.set("grid.cell_ms_p50", "ms", median(l.cellMs))
	m.setTail("grid.cell_ms_tail", "ms", l.cellMs, m.set)
	m.set("grid.worker_busy_share", "share", ratio(sum(l.cellMs)/1e3, workerS))
	m.set("store.claim_calls", "count", per(float64(l.claims)))
	m.set("store.claim_ms_p50", "ms", median(l.claimMs))
	m.set("store.claim_hit_ratio", "ratio", ratio(float64(l.claimHits), float64(l.claims)))
	m.set("store.savecell_calls", "count", per(float64(len(l.saveMs))))
	m.set("store.savecell_ms_p50", "ms", median(l.saveMs))
	m.setTail("store.savecell_ms_tail", "ms", l.saveMs, m.set)
	m.set("store.renew_calls", "count", per(float64(l.renews)))
	m.set("store.share", "share", ratio(l.storeMs/1e3, workerS))
	m.set("store.cells_json_bytes", "B", ratio(float64(l.cellsJSON), float64(l.passes)))
	m.set("store.bytes_written", "B", per(float64(l.written)))

	var cpuAll float64
	for _, v := range l.cpu {
		cpuAll += v
	}
	for _, k := range cpuBuckets {
		m.set("cpu."+k, "share", ratio(l.cpu[k], cpuAll))
	}
	m.notes["cpu.other"] = fmt.Sprintf("%.2f s of CPU sampled", cpuAll/1e9)
	m.set("trace.overhead", "ratio", overhead)
	r := b.rep
	m.set("failed_share", "share", ratio(float64(r.failed+r.undecoded), float64(r.attempted)))
	b.noteFailedShare()
	m.notes["adversary.ns_per_call"] = fmt.Sprintf("1 in %d calls timed, %.0f ns clock cost taken off", sampleEvery, clock)
	m.notes["trace.overhead"] = "traced over untraced wall of batch 0"
	if len(l.iterNs) > 0 {
		m.notes["core.iteration_us_p50"] = fmt.Sprintf("%d iterations", len(l.iterNs))
	}
}
