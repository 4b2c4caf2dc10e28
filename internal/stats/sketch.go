package stats

import (
	"hash/fnv"
	"math"
	"sort"
)

// Sketch is a K-minimum-values (KMV) distinct-value estimator: it keeps
// the K smallest 64-bit hashes of the values fed to it. The k-th
// smallest hash of n distinct uniform values sits near k/n of the hash
// space, so n ≈ (K-1) / (kth / 2^64). KMV sketches merge by set union
// (keeping the K smallest), which is exactly what the catalog's lookup
// needs: per-node sketches combine into a table-wide distinct-key
// estimate without double-counting keys stored on several nodes.
type Sketch struct {
	// K is the sketch capacity; estimates carry ~1/sqrt(K-2) relative
	// error.
	K int
	// Hashes holds the up-to-K smallest distinct value hashes, sorted
	// ascending.
	Hashes []uint64
}

// DefaultSketchK gives ~13% standard error at 17 words of state.
const DefaultSketchK = 64

// NewSketch creates an empty sketch of capacity k (DefaultSketchK when
// k <= 0).
func NewSketch(k int) *Sketch {
	if k <= 0 {
		k = DefaultSketchK
	}
	return &Sketch{K: k}
}

// Add feeds one value.
func (s *Sketch) Add(v string) {
	h := fnv.New64a()
	h.Write([]byte(v))
	s.insert(fmix64(h.Sum64()))
}

// fmix64 is the murmur3 finalizer. KMV reads order statistics off the
// hash values, so they must be uniform; raw FNV over short, similar
// strings (sequential keys) is visibly biased, and the extra avalanche
// pass fixes that.
func fmix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

func (s *Sketch) insert(x uint64) {
	i := sort.Search(len(s.Hashes), func(i int) bool { return s.Hashes[i] >= x })
	if i < len(s.Hashes) && s.Hashes[i] == x {
		return
	}
	if len(s.Hashes) >= s.K {
		if i >= s.K {
			return
		}
		s.Hashes = s.Hashes[:s.K-1]
	}
	s.Hashes = append(s.Hashes, 0)
	copy(s.Hashes[i+1:], s.Hashes[i:])
	s.Hashes[i] = x
}

// Merge unions another sketch into this one, keeping the K smallest.
func (s *Sketch) Merge(o *Sketch) {
	if o == nil {
		return
	}
	for _, x := range o.Hashes {
		s.insert(x)
	}
}

// Estimate returns the estimated number of distinct values.
func (s *Sketch) Estimate() float64 {
	n := len(s.Hashes)
	if n < s.K || n == 0 {
		return float64(n) // saw fewer than K distinct values: exact
	}
	kth := float64(s.Hashes[n-1])
	if kth == 0 {
		return float64(n)
	}
	return float64(n-1) * math.Exp2(64) / kth
}

// Clone returns an independent copy. A nil sketch clones to nil:
// summaries travel the network and may legally carry no sketch, so
// merge paths must not have to nil-check before cloning.
func (s *Sketch) Clone() *Sketch {
	if s == nil {
		return nil
	}
	return &Sketch{K: s.K, Hashes: append([]uint64(nil), s.Hashes...)}
}
