package core

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"mpic/internal/bitstring"
)

func mkChunk(index int, syms ...bitstring.Symbol) ChunkRecord {
	return ChunkRecord{Index: index, Syms: syms}
}

func TestTranscriptAppendLen(t *testing.T) {
	tr := NewTranscript()
	if tr.Len() != 0 {
		t.Fatal("new transcript not empty")
	}
	tr.Append(mkChunk(1, bitstring.Sym0, bitstring.Sym1))
	tr.Append(mkChunk(2, bitstring.Silence))
	if tr.Len() != 2 {
		t.Fatalf("Len = %d, want 2", tr.Len())
	}
	if tr.Chunk(0).Index != 1 || tr.Chunk(1).Index != 2 {
		t.Error("chunk indices wrong")
	}
	// Encoded bits: 32 (index) + 2 per symbol.
	if got := tr.PrefixBits(1); got != 32+4 {
		t.Errorf("PrefixBits(1) = %d, want 36", got)
	}
	if got := tr.PrefixBits(2); got != 36+32+2 {
		t.Errorf("PrefixBits(2) = %d, want 70", got)
	}
	if tr.Bits().Len() != 70 {
		t.Errorf("Bits().Len() = %d, want 70", tr.Bits().Len())
	}
}

func TestTranscriptPrefixBitsClamps(t *testing.T) {
	tr := NewTranscript()
	tr.Append(mkChunk(1, bitstring.Sym0))
	if tr.PrefixBits(-1) != 0 {
		t.Error("negative prefix not clamped to 0")
	}
	if tr.PrefixBits(99) != tr.Bits().Len() {
		t.Error("oversized prefix not clamped to full length")
	}
}

func TestTranscriptTruncate(t *testing.T) {
	tr := NewTranscript()
	for i := 1; i <= 5; i++ {
		tr.Append(mkChunk(i, bitstring.Sym1, bitstring.Sym0, bitstring.Silence))
	}
	bitsAt3 := tr.PrefixBits(3)
	tr.TruncateTo(3)
	if tr.Len() != 3 {
		t.Fatalf("Len after truncate = %d, want 3", tr.Len())
	}
	if tr.Bits().Len() != bitsAt3 {
		t.Fatalf("bits after truncate = %d, want %d", tr.Bits().Len(), bitsAt3)
	}
	// Truncate to larger and to negative are no-op / clamp.
	tr.TruncateTo(10)
	if tr.Len() != 3 {
		t.Error("truncate to larger changed length")
	}
	tr.TruncateTo(-1)
	if tr.Len() != 0 {
		t.Error("truncate to negative did not clamp to 0")
	}
}

func TestTranscriptAppendAfterTruncate(t *testing.T) {
	tr := NewTranscript()
	tr.Append(mkChunk(1, bitstring.Sym1))
	tr.Append(mkChunk(2, bitstring.Sym0))
	tr.TruncateTo(1)
	tr.Append(mkChunk(2, bitstring.Sym1)) // re-simulated with new content
	other := NewTranscript()
	other.Append(mkChunk(1, bitstring.Sym1))
	other.Append(mkChunk(2, bitstring.Sym1))
	if !tr.Equal(other) {
		t.Fatal("transcript after truncate+append differs from fresh build")
	}
}

func TestCommonPrefixChunks(t *testing.T) {
	a := NewTranscript()
	b := NewTranscript()
	for i := 1; i <= 4; i++ {
		a.Append(mkChunk(i, bitstring.Sym0))
	}
	for i := 1; i <= 3; i++ {
		b.Append(mkChunk(i, bitstring.Sym0))
	}
	if got := CommonPrefixChunks(a, b); got != 3 {
		t.Errorf("prefix of strict-prefix pair = %d, want 3", got)
	}
	b.Append(mkChunk(4, bitstring.Sym1)) // diverging content
	if got := CommonPrefixChunks(a, b); got != 3 {
		t.Errorf("prefix with divergent chunk 4 = %d, want 3", got)
	}
	empty := NewTranscript()
	if CommonPrefixChunks(a, empty) != 0 {
		t.Error("prefix with empty transcript != 0")
	}
}

func TestChunkEqualVariants(t *testing.T) {
	a := mkChunk(1, bitstring.Sym0, bitstring.Sym1)
	if !chunkEqual(&a, &a) {
		t.Error("chunk not equal to itself")
	}
	b := mkChunk(2, bitstring.Sym0, bitstring.Sym1)
	if chunkEqual(&a, &b) {
		t.Error("different indices compare equal")
	}
	c := mkChunk(1, bitstring.Sym0)
	if chunkEqual(&a, &c) {
		t.Error("different lengths compare equal")
	}
	d := mkChunk(1, bitstring.Sym0, bitstring.Silence)
	if chunkEqual(&a, &d) {
		t.Error("different symbols compare equal")
	}
}

// Property: the cached bit encoding always matches a from-scratch
// rebuild, through arbitrary append/truncate sequences.
func TestTranscriptBitsConsistencyProperty(t *testing.T) {
	f := func(seed int64, opsRaw []byte) bool {
		rng := rand.New(rand.NewSource(seed))
		tr := NewTranscript()
		var chunks []ChunkRecord
		for _, op := range opsRaw {
			if op%3 == 0 && len(chunks) > 0 {
				cut := rng.Intn(len(chunks) + 1)
				tr.TruncateTo(cut)
				chunks = chunks[:cut]
			} else {
				syms := make([]bitstring.Symbol, rng.Intn(4)+1)
				for i := range syms {
					syms[i] = bitstring.Symbol(rng.Intn(3))
				}
				rec := ChunkRecord{Index: len(chunks) + 1, Syms: syms}
				tr.Append(rec)
				chunks = append(chunks, rec)
			}
		}
		rebuilt := NewTranscript()
		for _, rec := range chunks {
			rebuilt.Append(rec)
		}
		return tr.Equal(rebuilt) && tr.Bits().Equal(rebuilt.Bits())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestTranscriptHashDistinguishesLengths: the chunk-index encoding makes
// prefixes of different chunk counts hash differently despite the
// zero-padding property (footnote 11's requirement).
func TestTranscriptLengthsEncodeDifferently(t *testing.T) {
	a := NewTranscript()
	a.Append(mkChunk(1, bitstring.Sym0, bitstring.Sym0))
	b := NewTranscript()
	b.Append(mkChunk(1, bitstring.Sym0, bitstring.Sym0))
	b.Append(mkChunk(2, bitstring.Sym0, bitstring.Sym0))
	// b's encoding must not be a's encoding followed by zeros: the chunk
	// index 2 contributes a nonzero bit.
	aBits := a.Bits()
	bBits := b.Bits()
	diff := false
	for i := aBits.Len(); i < bBits.Len(); i++ {
		if bBits.Get(i) != 0 {
			diff = true
			break
		}
	}
	if !diff {
		t.Fatal("longer transcript encodes as zero-padded shorter one: hashes would collide")
	}
}

// TestTranscriptReserveModel drives Reserve/Commit, Append, abandoned
// reservations and TruncateTo at random against a copy-per-chunk
// reference model. Rewinds hand the freed tail of the symbol buffer to
// later reservations, so after every step each chunk's Syms, the prefix
// offsets and the cached encoding must still match the model, and chunk
// records read before a rewind must not be overwritten by the chunks
// simulated after it.
func TestTranscriptReserveModel(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	randSyms := func() []bitstring.Symbol {
		syms := make([]bitstring.Symbol, rng.Intn(6))
		for i := range syms {
			syms[i] = bitstring.Symbol(rng.Intn(3))
		}
		return syms
	}
	for trial := 0; trial < 40; trial++ {
		tr := NewTranscript()
		var model [][]bitstring.Symbol
		for step := 0; step < 300; step++ {
			switch op := rng.Intn(10); {
			case op < 3 && len(model) > 0:
				n := len(model) - 1 - rng.Intn(min(3, len(model)))
				tr.TruncateTo(n)
				model = model[:n]
			case op < 8:
				syms := randSyms()
				if rng.Intn(4) == 0 {
					// Abandoned: the next Reserve discards it.
					copy(tr.Reserve(len(syms)+1), append(randSyms(), syms...))
				}
				buf := tr.Reserve(len(syms))
				for i, s := range buf {
					if s != bitstring.Silence {
						t.Fatalf("trial %d step %d: reserved slot %d holds %v, want Silence", trial, step, i, s)
					}
				}
				copy(buf, syms)
				tr.Commit()
				model = append(model, syms)
			default:
				syms := randSyms()
				tr.Append(ChunkRecord{Index: len(model) + 1, Syms: syms})
				model = append(model, syms)
			}

			if tr.Len() != len(model) {
				t.Fatalf("trial %d step %d: Len = %d, want %d", trial, step, tr.Len(), len(model))
			}
			want := bitstring.NewBitVec(0)
			for i, syms := range model {
				rec := tr.Chunk(i)
				if rec.Index != i+1 || !slices.Equal(rec.Syms, syms) {
					t.Fatalf("trial %d step %d: chunk %d = %d %v, want %d %v", trial, step, i, rec.Index, rec.Syms, i+1, syms)
				}
				want.AppendUint(uint64(i+1), chunkIndexBits)
				for _, s := range syms {
					want.AppendSymbol(s)
				}
				if tr.PrefixBits(i+1) != want.Len() {
					t.Fatalf("trial %d step %d: PrefixBits(%d) = %d, want %d", trial, step, i+1, tr.PrefixBits(i+1), want.Len())
				}
			}
			if !tr.Bits().Equal(want) {
				t.Fatalf("trial %d step %d: cached encoding differs from the model's", trial, step)
			}
		}
	}
}

// TestTranscriptRewindReusesStorage: once a transcript has grown, rewind
// and re-simulation cycles allocate nothing — the reserved buffer is the
// tail the rewind freed.
func TestTranscriptRewindReusesStorage(t *testing.T) {
	tr := NewTranscript()
	for i := 1; i <= 8; i++ {
		copy(tr.Reserve(5), []bitstring.Symbol{bitstring.Sym1, bitstring.Sym0})
		tr.Commit()
	}
	allocs := testing.AllocsPerRun(100, func() {
		tr.TruncateTo(tr.Len() - 2)
		for i := 0; i < 2; i++ {
			buf := tr.Reserve(5)
			buf[4] = bitstring.Sym1
			tr.Commit()
		}
	})
	if allocs != 0 {
		t.Fatalf("rewind + re-simulation allocates %.1f times, want 0", allocs)
	}
}

func TestTranscriptCommitWithoutReservePanics(t *testing.T) {
	tr := NewTranscript()
	tr.Reserve(2)
	tr.TruncateTo(-1) // an empty transcript: nothing to truncate, keeps the reservation
	tr.Commit()
	copy(tr.Reserve(1), []bitstring.Symbol{bitstring.Sym1})
	tr.TruncateTo(0) // a real rollback discards the reservation
	defer func() {
		if recover() == nil {
			t.Fatal("Commit after a rollback discarded the reservation did not panic")
		}
	}()
	tr.Commit()
}
