package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"mpic/internal/adversary"
	"mpic/internal/graph"
	"mpic/internal/protocol"
)

// TestEndToEndProperty is the library's headline property: over random
// connected topologies, random sparse workloads, and random light
// oblivious noise, the coded simulation reproduces the noiseless
// reference outputs.
func TestEndToEndProperty(t *testing.T) {
	f := func(seed int64, nRaw, extraRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw)%5 + 3       // 3..7 parties
		extra := int(extraRaw) % n // extra edges beyond the tree
		g := graph.RandomConnected(n, extra, rng)
		proto := protocol.NewRandom(g, 10*n, 0.4, seed, nil)
		params := ParamsFor(AlgA, g)
		params.CRSKey = seed
		params.IterFactor = 40
		adv := adversary.NewRandomRate(0.002/float64(g.M()), rand.New(rand.NewSource(seed^0x5f5f)))
		res, err := Run(Options{Protocol: proto, Params: params, Adversary: adv})
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		if !res.Success {
			t.Logf("seed %d n=%d m=%d: failed with %d corruptions, G*=%d/%d",
				seed, n, g.M(), res.Metrics.TotalCorruptions(), res.GStar, res.NumChunks)
		}
		return res.Success
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestInvariantGStarNeverExceedsTranscripts: across noisy runs the
// oracle's G* is consistent (it never exceeds any endpoint's transcript
// length) and success always implies G* >= |Π|.
func TestInvariantSuccessImpliesAgreement(t *testing.T) {
	f := func(seed int64, noiseRaw uint8) bool {
		g := graph.Ring(4)
		noise := float64(noiseRaw%50) / 10000.0
		proto := protocol.NewRandom(g, 40, 0.5, seed, nil)
		params := ParamsFor(Alg1, g)
		params.CRSKey = seed
		params.IterFactor = 20
		adv := adversary.NewRandomRate(noise, rand.New(rand.NewSource(seed)))
		res, err := Run(Options{Protocol: proto, Params: params, Adversary: adv})
		if err != nil {
			return false
		}
		if res.Success && res.GStar < res.NumChunks {
			t.Logf("seed %d: success with G*=%d < %d", seed, res.GStar, res.NumChunks)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestChunkingPropertyRandomSchedules: chunk covers and locates every
// transmission for arbitrary workload shapes.
func TestChunkingPropertyRandomSchedules(t *testing.T) {
	f := func(seed int64, nRaw, densityRaw uint8) bool {
		n := int(nRaw)%5 + 3
		density := float64(densityRaw%90+10) / 100.0
		g := graph.Ring(n)
		proto := protocol.NewRandom(g, 30, density, seed, nil)
		chunkBits := 5 * g.M()
		ch := protocol.NewChunking(proto, chunkBits)
		total := 0
		for _, spec := range ch.Specs {
			total += spec.Bits
		}
		if total != proto.Schedule().TotalBits() {
			return false
		}
		// Every transmission must be locatable and rounds must nest.
		seq := map[int]int{} // crude per-link counters keyed by hash
		_ = seq
		count := 0
		for r := 0; r < proto.Schedule().Rounds(); r++ {
			count += len(proto.Schedule().At(r))
		}
		located := 0
		for _, spec := range ch.Specs {
			for k := range g.Edges() {
				located += len(spec.Slots(k))
			}
		}
		return located == count
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
