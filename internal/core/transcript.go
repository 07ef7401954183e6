package core

import (
	"fmt"
	"slices"

	"mpic/internal/bitstring"
)

// chunkIndexBits is the width used to encode a chunk's number into the
// hashed transcript. Appending the chunk number makes transcripts of
// different lengths hash differently despite the inner-product hash's
// h(x) = h(x◦0) padding behavior (footnote 11).
const chunkIndexBits = 32

// ChunkRecord is one simulated chunk as observed by one endpoint of a
// link: for slots where the endpoint was the sender, the bit it sent; for
// receiver slots, the (possibly corrupted, possibly Silence) symbol it
// received.
type ChunkRecord struct {
	// Index is the chunk number (1-based; dummy chunks continue the
	// numbering past |Π|).
	Index int
	// Syms holds the observed symbol per slot, in the chunk's slot order.
	Syms []bitstring.Symbol
}

// Transcript is one endpoint's record of a link: the paper's T_{u,v}.
// Chunk i (0-based) always has Index i+1. All chunks' symbols live back
// to back in one growable buffer, so a rewind followed by re-simulation
// reuses the space instead of allocating; the binary encoding hashed by
// the consistency checks is cached next to it.
type Transcript struct {
	syms   []bitstring.Symbol
	starts []int // starts[i] = offset in syms of chunk i; len = Len()+1
	// reserved is the length of the uncommitted buffer Reserve handed out
	// past len(syms), or -1 if there is none.
	reserved int
	bits     *bitstring.BitVec
	offs     []int // offs[i] = encoded bit length of the first i chunks
}

// NewTranscript returns an empty transcript.
func NewTranscript() *Transcript {
	return &Transcript{bits: bitstring.NewBitVec(0), starts: []int{0}, offs: []int{0}, reserved: -1}
}

// Len returns |T| in chunks.
func (t *Transcript) Len() int { return len(t.starts) - 1 }

// Chunk returns the i-th (0-based) chunk record. Its Syms alias the
// transcript's storage and are valid until the chunk is truncated away.
func (t *Transcript) Chunk(i int) ChunkRecord {
	lo, hi := t.starts[i], t.starts[i+1]
	return ChunkRecord{Index: i + 1, Syms: t.syms[lo:hi:hi]}
}

// Reserve returns a Silence-filled buffer of n symbols for chunk Len()+1,
// carved from the transcript's own storage; Commit appends it without
// copying. The buffer stays valid until Commit, and a later Reserve,
// Append or shortening TruncateTo discards it.
func (t *Transcript) Reserve(n int) []bitstring.Symbol {
	end := len(t.syms)
	t.syms = slices.Grow(t.syms, n)
	buf := t.syms[end : end+n : end+n]
	for i := range buf {
		buf[i] = bitstring.Silence
	}
	t.reserved = n
	return buf
}

// Commit appends the buffer of the last Reserve as chunk Len()+1.
func (t *Transcript) Commit() {
	if t.reserved < 0 {
		panic("core: Transcript.Commit without a reservation")
	}
	end := len(t.syms)
	t.syms = t.syms[:end+t.reserved]
	t.reserved = -1
	t.starts = append(t.starts, len(t.syms))
	t.bits.AppendUint(uint64(t.Len()), chunkIndexBits)
	for _, s := range t.syms[end:] {
		t.bits.AppendSymbol(s)
	}
	t.offs = append(t.offs, t.bits.Len())
}

// Append adds a chunk record by copying its symbols. The record's index
// must continue the sequence; the engine always simulates chunk |T|+1.
func (t *Transcript) Append(rec ChunkRecord) {
	if rec.Index != t.Len()+1 {
		panic(fmt.Sprintf("core: appending chunk %d to a transcript of %d chunks", rec.Index, t.Len()))
	}
	copy(t.Reserve(len(rec.Syms)), rec.Syms)
	t.Commit()
}

// TruncateTo rolls the transcript back to n chunks. Out-of-range
// arguments clamp rather than panic: n < 0 truncates to empty (rewind
// waves can legitimately ask for "one less than nothing" on an empty
// link) and n >= Len() is a no-op. Truncation propagates structurally to
// the cached bit encoding — any attached watermark (the incremental hash
// checkpoints) observes the rollback through bitstring.BitVec, with no
// further notification from this type.
func (t *Transcript) TruncateTo(n int) {
	if n < 0 {
		n = 0
	}
	if n >= t.Len() {
		return
	}
	t.starts = t.starts[:n+1]
	t.syms = t.syms[:t.starts[n]]
	t.reserved = -1
	t.offs = t.offs[:n+1]
	t.bits.Truncate(t.offs[n])
}

// PrefixBits returns the encoded bit length of the first n chunks.
// Out-of-range arguments clamp: n < 0 reads as 0 (empty prefix) and
// n > Len() reads as Len() — meeting points computed from a counter that
// outruns a freshly truncated transcript must still hash a well-defined
// prefix.
func (t *Transcript) PrefixBits(n int) int {
	if n < 0 {
		n = 0
	}
	if n >= len(t.offs) {
		n = len(t.offs) - 1
	}
	return t.offs[n]
}

// Bits exposes the cached encoding for hashing.
func (t *Transcript) Bits() *bitstring.BitVec { return t.bits }

// CommonPrefixChunks returns the number of leading chunks on which two
// transcripts agree exactly — the oracle's G_{u,v} (Section 4.1).
func CommonPrefixChunks(a, b *Transcript) int {
	n := a.Len()
	if b.Len() < n {
		n = b.Len()
	}
	for i := 0; i < n; i++ {
		ra, rb := a.Chunk(i), b.Chunk(i)
		if !chunkEqual(&ra, &rb) {
			return i
		}
	}
	return n
}

func chunkEqual(a, b *ChunkRecord) bool {
	return a.Index == b.Index && slices.Equal(a.Syms, b.Syms)
}

// Equal reports whether two transcripts agree entirely.
func (t *Transcript) Equal(o *Transcript) bool {
	return t.Len() == o.Len() && CommonPrefixChunks(t, o) == t.Len()
}
