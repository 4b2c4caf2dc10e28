// Package bloom implements the Bloom filters used by PIER's Bloom-join
// rewrite (§4.2): each node summarizes the join keys of its local table
// fragment, the per-table filters are OR-ed at a collector, and the
// combined filter prunes the rehash of the opposite table.
package bloom

import (
	"errors"
	"hash/fnv"
	"math"
	"math/bits"

	"pier/internal/wire"
)

// Filter is a fixed-size Bloom filter with K hash functions derived by
// double hashing from one 64-bit FNV-1a digest.
type Filter struct {
	Bits []uint64
	K    int
}

// New creates a filter with at least mBits bits and k hash functions.
func New(mBits, k int) *Filter {
	if mBits < 64 {
		mBits = 64
	}
	if k < 1 {
		k = 1
	}
	return &Filter{Bits: make([]uint64, (mBits+63)/64), K: k}
}

// NewForCapacity sizes a filter for n elements at the given false
// positive rate using the standard m = -n·ln(p)/ln(2)² and
// k = (m/n)·ln(2) formulas.
func NewForCapacity(n int, fpRate float64) *Filter {
	if n < 1 {
		n = 1
	}
	if fpRate <= 0 || fpRate >= 1 {
		fpRate = 0.01
	}
	m := int(math.Ceil(-float64(n) * math.Log(fpRate) / (math.Ln2 * math.Ln2)))
	k := int(math.Round(float64(m) / float64(n) * math.Ln2))
	if k < 1 {
		k = 1
	}
	return New(m, k)
}

func (f *Filter) indexes(s string, fn func(bit uint64)) {
	h := fnv.New64a()
	h.Write([]byte(s))
	d := h.Sum64()
	h1 := d
	h2 := d>>33 | 1 // odd increment for double hashing
	m := uint64(len(f.Bits)) * 64
	for i := 0; i < f.K; i++ {
		fn((h1 + uint64(i)*h2) % m)
	}
}

// Add inserts a key.
func (f *Filter) Add(s string) {
	f.indexes(s, func(bit uint64) {
		f.Bits[bit/64] |= 1 << (bit % 64)
	})
}

// Test reports whether the key may be present. False positives are
// possible; false negatives are not.
func (f *Filter) Test(s string) bool {
	ok := true
	f.indexes(s, func(bit uint64) {
		if f.Bits[bit/64]&(1<<(bit%64)) == 0 {
			ok = false
		}
	})
	return ok
}

// Union ORs another filter of identical geometry into this one — the
// collector-side combine of §4.2.
func (f *Filter) Union(g *Filter) error {
	if len(f.Bits) != len(g.Bits) || f.K != g.K {
		return errors.New("bloom: mismatched filter geometry")
	}
	for i, w := range g.Bits {
		f.Bits[i] |= w
	}
	return nil
}

// Saturate sets every bit, making Test answer true for every key. The
// Bloom collector degrades to a saturated filter when a peer's filter
// cannot be combined (mismatched geometry): pruning with a filter that
// is missing that peer's keys would silently drop join rows, whereas a
// saturated filter just disables pruning.
func (f *Filter) Saturate() {
	for i := range f.Bits {
		f.Bits[i] = ^uint64(0)
	}
}

// Clone returns a deep copy.
func (f *Filter) Clone() *Filter {
	return &Filter{Bits: append([]uint64(nil), f.Bits...), K: f.K}
}

// FillRatio returns the fraction of set bits (a saturation diagnostic).
func (f *Filter) FillRatio() float64 {
	return float64(f.popcount()) / float64(len(f.Bits)*64)
}

// tagFilter is the wire tag owned by this package (see the tag table in
// package wire).
const tagFilter byte = 24

// maxWords bounds a decoded filter to what a dense frame could carry
// (wire.MaxPad is realnet's frame cap): the sparse form costs bytes per
// set bit, not per word, so its word count is bounded by nothing else.
const maxWords = wire.MaxPad / 8

func init() {
	wire.Register(tagFilter, func(c *wire.Codec, f *Filter) {
		c.Int(&f.K)
		// Validated plans keep K within [1, 64] (Plan.Validate clamps
		// BloomHashes) and New never allocates an empty bit array; a
		// frame claiming otherwise would divide by zero (or spin for 2^60
		// hashes) inside Test/Add on the event loop.
		if c.Decoding() && (f.K < 1 || f.K > 64) {
			c.Fail("bloom filter hash count out of range")
		}
		// One varint holds the word count n and the form, whichever is
		// smaller: n<<1 is followed by the n dense words, n<<1|1 by the
		// count of set bits and the gap before each. A per-node filter
		// of a few keys is nearly empty, and sparse it is a few bytes.
		form := uint64(len(f.Bits)) << 1
		if !c.Decoding() && f.sparseSmaller() {
			form |= 1
		}
		c.Uvarint(&form)
		n := form >> 1
		if c.Decoding() {
			switch {
			case n == 0:
				c.Fail("empty bloom filter")
			case n > maxWords:
				c.Fail("bloom filter word count exceeds a frame")
			}
		}
		if c.Err() != nil {
			return
		}
		if form&1 == 0 {
			c.FixedWords(&f.Bits, int(n))
		} else {
			f.sparse(c, n)
		}
	})
}

// gaps calls fn with the gap before each set bit in order: its distance
// from the previous set bit, less one (the first bit's position).
func (f *Filter) gaps(fn func(gap uint64)) {
	next := uint64(0)
	for i, w := range f.Bits {
		for ; w != 0; w &= w - 1 {
			p := uint64(i)*64 + uint64(bits.TrailingZeros64(w))
			fn(p - next)
			next = p + 1
		}
	}
}

func (f *Filter) popcount() int {
	set := 0
	for _, w := range f.Bits {
		set += bits.OnesCount64(w)
	}
	return set
}

func uvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

// sparseSmaller reports whether the sparse form is the smaller one.
func (f *Filter) sparseSmaller() bool {
	dense, set := 8*len(f.Bits), f.popcount()
	if set >= dense {
		return false // every gap takes a byte at least
	}
	size := uvarintLen(uint64(set))
	f.gaps(func(g uint64) { size += uvarintLen(g) })
	return size < dense
}

// sparse codes the set bits of an n-word filter. Decoding rejects a
// count the remaining bytes cannot hold (Len) and a position past the
// last bit; gaps keep positions strictly increasing, so none repeats.
func (f *Filter) sparse(c *wire.Codec, n uint64) {
	if !c.Decoding() {
		c.Len(f.popcount(), 1)
		f.gaps(func(g uint64) { c.Uvarint(&g) })
		return
	}
	count := c.Len(0, 1)
	if c.Err() != nil {
		return
	}
	f.Bits = make([]uint64, n)
	limit, next := n*64, uint64(0)
	for i := 0; i < count && c.Err() == nil; i++ {
		var g uint64
		c.Uvarint(&g)
		if g >= limit-next {
			c.Fail("bloom filter bit position out of range")
			return
		}
		p := next + g
		f.Bits[p/64] |= 1 << (p % 64)
		next = p + 1
	}
}

// WireSize implements env.Message for filters shipped in puts and
// multicasts.
func (f *Filter) WireSize() int { return wire.Size(f) }
