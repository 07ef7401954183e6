package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"

	"mpic"
	"mpic/internal/protocol"
)

// expected is the ground truth for one scenario: the noiseless outputs
// from protocol.RunReference, computed outside the timed region.
type expected struct {
	outputs [][]byte
	// Per-step set-up times, kept for the traced run's protocol metrics.
	build, chunking, reference time.Duration
}

// reference rebuilds the scenario's protocol from the same public inputs
// the library materializes (topology, workload, rounds, seed) and runs it
// noiselessly. withChunking also times protocol.NewChunking at the
// scheme's chunk size, which only the traced run reports.
func reference(sc mpic.Scenario, withChunking bool) (*expected, error) {
	g, err := mpic.NewTopology(sc.Topology.Name, sc.Topology.N)
	if err != nil {
		return nil, err
	}
	var e expected
	t0 := time.Now()
	p, err := mpic.NewWorkload(sc.Workload.Name, g, sc.Workload.Rounds, sc.Seed)
	if err != nil {
		return nil, err
	}
	e.build = time.Since(t0)
	if withChunking {
		t0 = time.Now()
		protocol.NewChunking(p, mpic.ParamsFor(sc.Scheme, g).ChunkBits)
		e.chunking = time.Since(t0)
	}
	t0 = time.Now()
	e.outputs = protocol.RunReference(p).Outputs
	e.reference = time.Since(t0)
	return &e, nil
}

// checkOutputs compares a result with the reference outputs: the count of
// parties whose output differs must equal the library's own
// WrongParties, and Success must mean no wrong party. A run that fails to
// decode passes this check; it is a protocol outcome, not a wrong output.
func checkOutputs(res *mpic.Result, want *expected) error {
	if len(res.Outputs) != len(want.outputs) {
		return fmt.Errorf("%d outputs, want %d", len(res.Outputs), len(want.outputs))
	}
	wrong := 0
	for i := range want.outputs {
		if !bytes.Equal(res.Outputs[i], want.outputs[i]) {
			wrong++
		}
	}
	if wrong != res.WrongParties {
		return fmt.Errorf("%d parties differ from the reference, result says WrongParties=%d", wrong, res.WrongParties)
	}
	if res.Success != (wrong == 0) {
		return fmt.Errorf("Success=%v with %d wrong parties", res.Success, wrong)
	}
	return nil
}

// digest fingerprints the deterministic part of a result. It leaves out
// Result.Arena (the arena's state depends on earlier runs), every timing,
// and the core-budget statistics.
func digest(res *mpic.Result) [sha256.Size]byte {
	h := sha256.New()
	put := func(vs ...int64) {
		var b [8]byte
		for _, v := range vs {
			binary.LittleEndian.PutUint64(b[:], uint64(v))
			h.Write(b[:])
		}
	}
	putF := func(f float64) { put(int64(math.Float64bits(f))) }
	b2i := func(b bool) int64 {
		if b {
			return 1
		}
		return 0
	}
	m := res.Metrics
	put(b2i(res.Success), int64(res.Iterations), int64(res.GStar), m.CC, int64(m.Rounds))
	put(m.CCPhase[:]...)
	put(m.Corruptions[:]...)
	put(m.HashCollisions)
	putF(res.Blowup)
	oh := sha256.New()
	for _, o := range res.Outputs {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], uint64(len(o)))
		oh.Write(b[:])
		oh.Write(o)
	}
	h.Write(oh.Sum(nil))
	if n := m.Net; n != nil {
		putF(n.Makespan)
		put(n.LateSymbols, n.LateDelivered, n.LateDropped, n.Erasures)
		for _, l := range n.Links {
			put(int64(l.From), int64(l.To), l.Hist.Count)
			putF(l.Hist.Sum)
			putF(l.Hist.Max)
			put(l.Hist.Buckets[:]...)
		}
	}
	var out [sha256.Size]byte
	copy(out[:], h.Sum(nil))
	return out
}

// batchDigest folds a batch's per-run digests, in scenario (cell index)
// order, into the 16-hex-digit value the golden files store.
func batchDigest(ds [][sha256.Size]byte) string {
	h := sha256.New()
	for _, d := range ds {
		h.Write(d[:])
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// golden holds one workload's batch digests, keyed "<seed base>/<batch>".
type golden struct {
	Workload string            `json:"workload"`
	Batches  map[string]string `json:"batches"`
}

func goldenKey(seed int64, batch int) string { return fmt.Sprintf("%d/%d", seed, batch) }

func goldenPath(dir, workload string) string { return filepath.Join(dir, workload+".json") }

// loadGolden reads a workload's golden file; a missing file is an empty
// set, so every batch falls back to the reference comparison alone.
func loadGolden(dir, workload string) (*golden, error) {
	g := &golden{Workload: workload, Batches: map[string]string{}}
	raw, err := os.ReadFile(goldenPath(dir, workload))
	if errors.Is(err, os.ErrNotExist) {
		return g, nil
	}
	if err != nil {
		return nil, err
	}
	if err := json.Unmarshal(raw, g); err != nil {
		return nil, fmt.Errorf("golden %s: %w", workload, err)
	}
	if g.Workload != workload {
		return nil, fmt.Errorf("golden file for %q holds %q", workload, g.Workload)
	}
	if g.Batches == nil {
		g.Batches = map[string]string{}
	}
	return g, nil
}

func (g *golden) save(dir string) error {
	raw, err := json.MarshalIndent(g, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(goldenPath(dir, g.Workload), append(raw, '\n'), 0o644)
}
