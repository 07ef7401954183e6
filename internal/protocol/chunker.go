package protocol

import (
	"cmp"
	"fmt"
	"slices"

	"mpic/internal/channel"
	"mpic/internal/graph"
)

// Slot is one transmission position on an undirected link within a chunk:
// the unit of transcript storage. Both endpoints enumerate the slots of a
// link in identical (schedule) order, so their transcripts are comparable
// position by position.
type Slot struct {
	// RelRound is the round offset from the chunk's start.
	RelRound int
	// Tx is the directed transmission occupying the slot.
	Tx Transmission
	// Seq is the per-directed-link sequence number of the transmission.
	Seq int
}

// ChunkSpec describes one chunk: a maximal run of consecutive rounds whose
// total communication does not exceed the chunk budget (Section 3.2).
type ChunkSpec struct {
	// Index is the 1-based chunk number (chunk numbers start at 1 so a
	// transcript containing any chunk differs from the empty string even
	// after zero-padding; see footnote 11).
	Index int
	// StartRound and EndRound delimit the Π rounds covered: [Start, End).
	StartRound, EndRound int
	// Bits is the total communication in the chunk.
	Bits int
	// slots is the chunking's flat slot array and offs this chunk's row of
	// its offset table: the slots of the link with edge ordinal k are
	// slots[offs[k]:offs[k+1]].
	slots []Slot
	offs  []int32
}

// Slots returns the slots of the undirected link with edge ordinal e (its
// position in Graph.Edges()) in schedule order, which is ascending in
// RelRound. The slice is owned by the chunking.
func (c *ChunkSpec) Slots(e int) []Slot { return c.slots[c.offs[e]:c.offs[e+1]] }

// SlotAt returns the index into Slots(e) of the transmission at relative
// round rel going from `from`, or -1 if none is scheduled.
func (c *ChunkSpec) SlotAt(e int, rel int, from graph.Node) int {
	slots := c.Slots(e)
	// Binary search for the first slot at round rel; at most two slots
	// (one per direction) share a round.
	lo, hi := 0, len(slots)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if slots[mid].RelRound < rel {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	for i := lo; i < len(slots) && slots[i].RelRound == rel; i++ {
		if slots[i].Tx.From == from {
			return i
		}
	}
	return -1
}

// Rounds returns the number of Π rounds the chunk spans.
func (c *ChunkSpec) Rounds() int { return c.EndRound - c.StartRound }

// SeqLoc locates a transmission inside the chunked transcript space.
type SeqLoc struct {
	// Chunk is the 1-based chunk index.
	Chunk int
	// Pos is the slot position within the chunk's Slots entry for the
	// transmission's undirected link.
	Pos int
}

// Chunking partitions a schedule into chunks of at most chunkBits bits,
// greedily packing whole rounds (the paper packs rounds until the next
// round would overflow the 5K budget).
type Chunking struct {
	// Sched is the underlying schedule.
	Sched *Schedule
	// ChunkBits is the per-chunk communication budget (the paper's 5K).
	ChunkBits int
	// Specs holds the real chunks; Specs[i] has Index i+1.
	Specs []ChunkSpec
	// MaxChunkRounds is the longest chunk's round span, which fixes the
	// simulation phase length.
	MaxChunkRounds int
	// MaxSlotsPerLink is the largest number of slots any link has in any
	// chunk (including the dummy chunk), used to size hash inputs.
	MaxSlotsPerLink int

	edges []graph.Edge
	dummy ChunkSpec
	// locs[Sched.txOff[i]+seq] locates the seq-th transmission on the
	// schedule's directed link with ordinal i.
	locs []SeqLoc
}

// NewChunking chunks the schedule of p into chunks of at most chunkBits
// bits each. chunkBits must be at least the largest single round's
// communication or that round becomes a chunk by itself. Every
// transmission must use a link of p's graph (Schedule.Validate).
//
// All chunks' slots, the padding chunk's included, live in one array
// indexed through one offset table, so the layout costs a handful of
// allocations however many chunks there are.
func NewChunking(p Protocol, chunkBits int) *Chunking {
	sched := p.Schedule()
	edges := p.Graph().Edges()
	m := len(edges)
	c := &Chunking{Sched: sched, ChunkBits: chunkBits, edges: edges}
	for r := 0; r < sched.Rounds(); r++ {
		bits := len(sched.At(r))
		if n := len(c.Specs); n == 0 || c.Specs[n-1].Bits+bits > chunkBits {
			if n > 0 {
				c.Specs[n-1].EndRound = r
			}
			c.Specs = append(c.Specs, ChunkSpec{Index: n + 1, StartRound: r})
		}
		c.Specs[len(c.Specs)-1].Bits += bits
	}
	if n := len(c.Specs); n > 0 {
		c.Specs[n-1].EndRound = sched.Rounds()
	}
	nc := len(c.Specs)

	linkEdge := make([]int, len(sched.links))
	for i, l := range sched.links {
		if linkEdge[i] = c.EdgeOrd(l.From, l.To); linkEdge[i] < 0 {
			panic(fmt.Sprintf("protocol: chunking a transmission on non-edge %v", l))
		}
	}
	// offs[ci*m+k] is where chunk ci's slots on edge k start; the padding
	// chunk is row nc and the final entry closes the array. Count, then
	// take prefix sums.
	offs := make([]int32, (nc+1)*m+1)
	for ci := range c.Specs {
		for r := c.Specs[ci].StartRound; r < c.Specs[ci].EndRound; r++ {
			for _, i := range sched.linkOrds(r) {
				offs[ci*m+linkEdge[i]+1]++
			}
		}
	}
	for k := 0; k < m; k++ {
		offs[nc*m+k+1] = 2
	}
	for i := 1; i < len(offs); i++ {
		offs[i] += offs[i-1]
	}
	slots := make([]Slot, offs[len(offs)-1])
	c.locs = make([]SeqLoc, sched.TotalBits())
	seq := make([]int, len(sched.links))
	next := make([]int32, m)
	for ci := range c.Specs {
		spec := &c.Specs[ci]
		row := offs[ci*m : (ci+1)*m+1]
		copy(next, row[:m])
		for r := spec.StartRound; r < spec.EndRound; r++ {
			for j, i := range sched.linkOrds(r) {
				tx := sched.At(r)[j]
				k := linkEdge[i]
				slots[next[k]] = Slot{RelRound: r - spec.StartRound, Tx: tx, Seq: seq[i]}
				c.locs[sched.txOff[i]+seq[i]] = SeqLoc{Chunk: spec.Index, Pos: int(next[k] - row[k])}
				next[k]++
				seq[i]++
			}
		}
		spec.slots, spec.offs = slots, row
		if spec.Rounds() > c.MaxChunkRounds {
			c.MaxChunkRounds = spec.Rounds()
		}
		for k := 0; k < m; k++ {
			if n := int(row[k+1] - row[k]); n > c.MaxSlotsPerLink {
				c.MaxSlotsPerLink = n
			}
		}
	}

	// Dummy padding chunk (Section 3.2): one round in which every link
	// carries one bit in each direction, content fixed to zero. Used for
	// chunk indices past |Π| so the simulation can keep making progress
	// while stragglers catch up.
	row := offs[nc*m:]
	for k, e := range edges {
		slots[row[k]] = Slot{RelRound: 0, Tx: Transmission{From: e.U, To: e.V}}
		slots[row[k]+1] = Slot{RelRound: 0, Tx: Transmission{From: e.V, To: e.U}}
	}
	c.dummy = ChunkSpec{StartRound: 0, EndRound: 1, Bits: 2 * m, slots: slots, offs: row}
	if c.MaxSlotsPerLink < 2 {
		c.MaxSlotsPerLink = 2
	}
	if c.MaxChunkRounds < 1 {
		c.MaxChunkRounds = 1
	}
	return c
}

// EdgeOrd returns the ordinal of the undirected link {u, v} — its
// position in Graph.Edges(), the index ChunkSpec.Slots takes — or -1 if
// it is not a link.
func (c *Chunking) EdgeOrd(u, v graph.Node) int {
	e := graph.Edge{U: u, V: v}.Canonical()
	i, ok := slices.BinarySearchFunc(c.edges, e, func(a, b graph.Edge) int {
		if a.U != b.U {
			return cmp.Compare(a.U, b.U)
		}
		return cmp.Compare(a.V, b.V)
	})
	if !ok {
		return -1
	}
	return i
}

// NumChunks returns |Π| in chunks (the real chunks, excluding padding).
func (c *Chunking) NumChunks() int { return len(c.Specs) }

// Spec returns the chunk spec for 1-based index i; indices past the real
// protocol return the dummy padding chunk (with Index set accordingly).
// The spec is returned by value; its slots stay owned by the chunking.
func (c *Chunking) Spec(i int) ChunkSpec {
	if i >= 1 && i <= len(c.Specs) {
		return c.Specs[i-1]
	}
	d := c.dummy
	d.Index = i
	return d
}

// IsDummy reports whether chunk index i is padding.
func (c *Chunking) IsDummy(i int) bool { return i < 1 || i > len(c.Specs) }

// Locate maps a directed transmission (link, seq) to its chunk and slot
// position; ok is false if seq is out of range.
func (c *Chunking) Locate(l channel.Link, seq int) (SeqLoc, bool) {
	i := c.Sched.linkOrd(l)
	if i < 0 || seq < 0 || seq >= c.Sched.txOff[i+1]-c.Sched.txOff[i] {
		return SeqLoc{}, false
	}
	return c.locs[c.Sched.txOff[i]+seq], true
}
