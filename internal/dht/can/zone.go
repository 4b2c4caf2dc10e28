// Package can implements the Content Addressable Network DHT (§3.1.1):
// a logical d-dimensional Cartesian coordinate space on a torus,
// partitioned into hyper-rectangular zones, one owner per zone, with
// greedy multi-hop routing toward the point a key hashes to.
package can

import (
	"fmt"
	"math"
)

// Span is the exclusive upper bound of every dimension: coordinates are
// uint32 values hashed from keys, so the space is [0, 2^32)^d.
const Span = uint64(1) << 32

// Zone is an axis-aligned hyper-rectangle [Lo[i], Hi[i]) per dimension.
// Zones are produced by recursively halving the root zone, so they never
// wrap around the torus; only adjacency and distance are torus-aware.
type Zone struct {
	Lo, Hi []uint64
	// Depth is the number of halvings from the root zone; it determines
	// the zone's volume (2^-Depth of the space) and which dimension is
	// split next (Depth mod d, cycling dimensions as in the CAN paper).
	Depth int
}

// RootZone returns the zone covering the entire d-dimensional space.
func RootZone(dims int) Zone {
	z := Zone{Lo: make([]uint64, dims), Hi: make([]uint64, dims)}
	for i := range z.Hi {
		z.Hi[i] = Span
	}
	return z
}

// Clone returns a deep copy. Lo and Hi share one allocation (one cache
// line at d=4): routing and the digest read every neighbor's bounds.
func (z Zone) Clone() Zone {
	d := len(z.Lo)
	b := append(append(make([]uint64, 0, 2*d), z.Lo...), z.Hi...)
	return Zone{Lo: b[:d:d], Hi: b[d:], Depth: z.Depth}
}

// Dims returns the dimensionality of the zone.
func (z Zone) Dims() int { return len(z.Lo) }

// Contains reports whether point p falls inside the zone.
func (z Zone) Contains(p []uint32) bool {
	for i := range z.Lo {
		v := uint64(p[i])
		if v < z.Lo[i] || v >= z.Hi[i] {
			return false
		}
	}
	return true
}

// Split halves the zone along the dimension given by Depth mod d and
// returns the two halves; lower covers [Lo, mid), upper covers [mid, Hi).
func (z Zone) Split() (lower, upper Zone) {
	dim := z.Depth % z.Dims()
	mid := (z.Lo[dim] + z.Hi[dim]) / 2
	lower, upper = z.Clone(), z.Clone()
	lower.Hi[dim] = mid
	upper.Lo[dim] = mid
	lower.Depth++
	upper.Depth++
	return lower, upper
}

// Splittable reports whether the zone can still be halved (each side has
// at least one coordinate).
func (z Zone) Splittable() bool {
	dim := z.Depth % z.Dims()
	return z.Hi[dim]-z.Lo[dim] >= 2
}

// Volume returns the zone's fraction of the total space.
func (z Zone) Volume() float64 {
	v := 1.0
	for i := range z.Lo {
		v *= float64(z.Hi[i]-z.Lo[i]) / float64(Span)
	}
	return v
}

// overlap1 reports whether the intervals [alo,ahi) and [blo,bhi) share
// interior points. Whole-span intervals overlap everything.
func overlap1(alo, ahi, blo, bhi uint64) bool {
	return alo < bhi && blo < ahi
}

// abut1 reports whether the intervals touch end-to-start on the torus.
func abut1(alo, ahi, blo, bhi uint64) bool {
	if ahi-alo == Span || bhi-blo == Span {
		return false // a whole-span interval overlaps rather than abuts
	}
	return ahi == blo || bhi == alo ||
		(ahi == Span && blo == 0) || (bhi == Span && alo == 0)
}

// Adjacent reports whether two zones are CAN neighbors: their spans
// overlap along d-1 dimensions and abut along exactly one (§3.1.1: "Two
// nodes are neighbors if their zones share a hyper-plane with dimension
// d-1").
func Adjacent(a, b Zone) bool {
	abuts := 0
	for i := range a.Lo {
		switch {
		case abut1(a.Lo[i], a.Hi[i], b.Lo[i], b.Hi[i]):
			abuts++
			if abuts > 1 {
				return false
			}
		case overlap1(a.Lo[i], a.Hi[i], b.Lo[i], b.Hi[i]):
			// contributes a shared extent in this dimension
		default:
			return false // disjoint and not touching: no shared face
		}
	}
	return abuts == 1
}

// circDist is the torus distance between two coordinates.
func circDist(a, b uint64) uint64 {
	var d uint64
	if a > b {
		d = a - b
	} else {
		d = b - a
	}
	if d > Span/2 {
		d = Span - d
	}
	return d
}

// DistanceSq returns the squared torus distance from point p to the
// nearest point of the zone; zero when the zone contains p. Greedy
// routing forwards to the neighbor minimizing this (§3.1.1: "forwarding
// the message along a path that approximates the straight line in the
// coordinate space").
func (z Zone) DistanceSq(p []uint32) float64 {
	var sum float64
	for i := range z.Lo {
		v := uint64(p[i])
		if v >= z.Lo[i] && v < z.Hi[i] {
			continue
		}
		d := circDist(v, z.Lo[i])
		if dh := circDist(v, z.Hi[i]-1); dh < d {
			d = dh
		}
		f := float64(d)
		sum += f * f
	}
	return sum
}

// String renders the zone like the paper's Figure 2 captions.
func (z Zone) String() string {
	return fmt.Sprintf("(%v,%v)@%d", z.Lo, z.Hi, z.Depth)
}

// TotalVolume sums the volumes of a set of zones.
func TotalVolume(zones []Zone) float64 {
	v := 0.0
	for _, z := range zones {
		v += z.Volume()
	}
	return v
}

// AnyAdjacent reports whether any pair across the two zone sets is
// adjacent, or any zone of one set contains a point owned by the other —
// used to decide whether two multi-zone nodes are neighbors.
func AnyAdjacent(a, b []Zone) bool {
	for _, za := range a {
		for _, zb := range b {
			if Adjacent(za, zb) {
				return true
			}
		}
	}
	return false
}

// MinDistanceSq returns the smallest DistanceSq from p to any zone of the
// set; +Inf for an empty set.
func MinDistanceSq(zones []Zone, p []uint32) float64 {
	best := math.Inf(1)
	for _, z := range zones {
		if d := z.DistanceSq(p); d < best {
			best = d
			if best == 0 {
				return 0
			}
		}
	}
	return best
}
