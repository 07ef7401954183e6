// Package protocol models the noiseless protocols Π the coding schemes
// simulate: synchronous protocols over a network G with a fixed,
// input-independent order of speaking (Section 2.1). Only message
// *content* may depend on inputs and observed history.
package protocol

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"mpic/internal/bitstring"
	"mpic/internal/channel"
	"mpic/internal/graph"
)

// Transmission is one scheduled symbol: From sends one bit to To.
type Transmission struct {
	From, To graph.Node
}

// Link returns the directed link the transmission uses.
func (t Transmission) Link() channel.Link { return channel.Link{From: t.From, To: t.To} }

// Schedule is the fixed speaking order of a protocol: for every round, the
// set of directed transmissions that occur. It is known to all parties
// and independent of inputs — the standing assumption of the paper.
type Schedule struct {
	rounds [][]Transmission
	// links lists the directed links the schedule uses, ascending by
	// (From, To); a link's position in it is its ordinal.
	links []channel.Link
	// txLink[roundOff[r]+j] is the link ordinal of rounds[r][j].
	roundOff []int
	txLink   []int32
	// txRounds holds every link's transmission rounds, ascending, grouped
	// by link ordinal: link i's are txRounds[txOff[i]:txOff[i+1]].
	txOff    []int
	txRounds []int
}

// NewSchedule builds a schedule from per-round transmissions. Within each
// round, transmissions are normalized to a deterministic order.
func NewSchedule(rounds [][]Transmission) *Schedule {
	s := &Schedule{rounds: rounds, roundOff: make([]int, len(rounds)+1)}
	for r, txs := range rounds {
		slices.SortFunc(txs, func(a, b Transmission) int { return compareLinks(a.Link(), b.Link()) })
		s.roundOff[r+1] = s.roundOff[r] + len(txs)
	}

	// Collect the distinct links, number them in (From, To) order, and
	// tag every transmission with its link's ordinal. The map lives only
	// while the schedule is built; lookups afterwards search s.links.
	ids := make(map[channel.Link]int32)
	for _, txs := range rounds {
		for _, tx := range txs {
			if _, ok := ids[tx.Link()]; !ok {
				ids[tx.Link()] = 0
				s.links = append(s.links, tx.Link())
			}
		}
	}
	slices.SortFunc(s.links, compareLinks)
	for i, l := range s.links {
		ids[l] = int32(i)
	}
	s.txLink = make([]int32, s.roundOff[len(rounds)])
	for r, txs := range rounds {
		for j, tx := range txs {
			s.txLink[s.roundOff[r]+j] = ids[tx.Link()]
		}
	}

	// Count each link's transmissions, then place their rounds; walking
	// the rounds in order leaves every link's rounds ascending.
	s.txOff = make([]int, len(s.links)+1)
	for _, i := range s.txLink {
		s.txOff[i+1]++
	}
	for i := 1; i < len(s.txOff); i++ {
		s.txOff[i] += s.txOff[i-1]
	}
	s.txRounds = make([]int, len(s.txLink))
	next := slices.Clone(s.txOff[:len(s.links)])
	for r := range rounds {
		for _, i := range s.linkOrds(r) {
			s.txRounds[next[i]] = r
			next[i]++
		}
	}
	return s
}

func compareLinks(a, b channel.Link) int {
	if a.From != b.From {
		return cmp.Compare(a.From, b.From)
	}
	return cmp.Compare(a.To, b.To)
}

// linkOrds returns the link ordinals of round r's transmissions, in the
// order of At(r).
func (s *Schedule) linkOrds(r int) []int32 { return s.txLink[s.roundOff[r]:s.roundOff[r+1]] }

// linkOrd returns the ordinal of directed link l, or -1 if the schedule
// never uses it.
func (s *Schedule) linkOrd(l channel.Link) int {
	lo, hi := 0, len(s.links)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if m := s.links[mid]; m.From < l.From || (m.From == l.From && m.To < l.To) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(s.links) && s.links[lo] == l {
		return lo
	}
	return -1
}

// roundsOn returns the rounds of the transmissions on directed link l,
// ascending (owned by the schedule; nil if the link is unused).
func (s *Schedule) roundsOn(l channel.Link) []int {
	i := s.linkOrd(l)
	if i < 0 {
		return nil
	}
	return s.txRounds[s.txOff[i]:s.txOff[i+1]]
}

// Rounds returns the number of rounds.
func (s *Schedule) Rounds() int { return len(s.rounds) }

// At returns the transmissions of round r (owned by the schedule).
func (s *Schedule) At(r int) []Transmission { return s.rounds[r] }

// TotalBits returns the communication complexity CC(Π) in bits.
func (s *Schedule) TotalBits() int { return len(s.txRounds) }

// CountOn returns the total number of transmissions on a directed link.
func (s *Schedule) CountOn(l channel.Link) int { return len(s.roundsOn(l)) }

// CountBefore returns how many transmissions occur on directed link l in
// rounds strictly before r — i.e. the sequence number the next
// transmission on l would get.
func (s *Schedule) CountBefore(l channel.Link, r int) int {
	return sort.SearchInts(s.roundsOn(l), r)
}

// Validate checks every transmission uses an existing link of g.
func (s *Schedule) Validate(g *graph.Graph) error {
	for r, txs := range s.rounds {
		for _, tx := range txs {
			if !g.HasEdge(tx.From, tx.To) {
				return fmt.Errorf("protocol: round %d transmission %v uses a non-edge", r, tx)
			}
		}
	}
	return nil
}

// View is what one party has observed: its input plus, for each incident
// directed link, the symbols of that link's transmissions so far. A party
// sees its own sent bits on outgoing links and the (possibly corrupted)
// received symbols on incoming links; positions not yet observed read as
// Silence.
type View interface {
	// Self returns the observing party.
	Self() graph.Node
	// Input returns the party's private input.
	Input() []byte
	// Observed returns the symbol recorded for the seq-th transmission on
	// directed link l, or Silence if it is unknown. l must be incident to
	// Self.
	Observed(l channel.Link, seq int) bitstring.Symbol
}

// Protocol is a noiseless multiparty protocol with a fixed speaking order.
//
// SendBit must be a deterministic function of the view restricted to
// observations from rounds strictly before r — that is what lets the
// coding schemes re-simulate a chunk after a rewind.
type Protocol interface {
	// Name identifies the workload in reports.
	Name() string
	// Graph returns the topology Π runs over.
	Graph() *graph.Graph
	// Schedule returns the fixed speaking order.
	Schedule() *Schedule
	// Input returns party p's input.
	Input(p graph.Node) []byte
	// SendBit computes the bit tx.From sends for the seq-th transmission
	// on tx's link, occurring at round r.
	SendBit(v View, r int, tx Transmission, seq int) byte
	// Output computes the party's final output from its view.
	Output(v View) []byte
}
