// Package bloom implements the Bloom filters used by PIER's Bloom-join
// rewrite (§4.2): each node summarizes the join keys of its local table
// fragment, the per-table filters are OR-ed at a collector, and the
// combined filter prunes the rehash of the opposite table.
package bloom

import (
	"errors"
	"hash/fnv"
	"math"

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
	set := 0
	for _, w := range f.Bits {
		for ; w != 0; w &= w - 1 {
			set++
		}
	}
	return float64(set) / float64(len(f.Bits)*64)
}

// tagFilter is the wire tag owned by this package (see the tag table in
// package wire).
const tagFilter byte = 24

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
		c.Words(&f.Bits)
		if c.Decoding() && len(f.Bits) == 0 {
			c.Fail("empty bloom filter")
		}
	})
}

// WireSize implements env.Message for filters shipped in puts and
// multicasts.
func (f *Filter) WireSize() int { return wire.Size(f) }
