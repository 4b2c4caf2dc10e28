package can

import (
	"math/rand"
	"slices"

	"pier/internal/dht"
)

// SpaceMap is an oracle over a bootstrapped CAN: a binary tree of zone
// splits that resolves any key to the owning node index in O(depth).
// The simulation harness uses it to bulk-load tables directly into the
// responsible nodes, matching the paper's setup: "All measurements ...
// are performed after the CAN routing stabilizes, and tables R and S are
// loaded into the DHT" (§5.2).
type SpaceMap struct {
	root *treeNode
	dims int
}

type treeNode struct {
	zone  Zone
	owner int // leaf: node index
	dim   int
	mid   uint64
	lo    *treeNode // child covering coordinate < mid along dim
	hi    *treeNode
}

// Bootstrap constructs a stable n-node CAN directly, bypassing the join
// protocol: node 0 starts with the whole space, and each subsequent node
// joins at a random point using the same split rule the protocol applies.
// Routers receive their zones and complete neighbor tables, and are
// marked joined. Returns the owner oracle.
func Bootstrap(routers []*Router, seed int64) *SpaceMap {
	if len(routers) == 0 {
		return nil
	}
	dims := routers[0].cfg.Dims
	rng := rand.New(rand.NewSource(seed))
	sm := &SpaceMap{dims: dims, root: &treeNode{zone: RootZone(dims), owner: 0}}
	leaves := make([]*treeNode, 1, len(routers))
	leaves[0] = sm.root

	point := make([]uint32, dims)
	for i := 1; i < len(routers); i++ {
		for j := range point {
			point[j] = rng.Uint32()
		}
		leaf := sm.locate(point)
		for !leaf.zone.Splittable() {
			// Astronomically unlikely with 32-bit coordinates; pick again.
			for j := range point {
				point[j] = rng.Uint32()
			}
			leaf = sm.locate(point)
		}
		lower, upper := leaf.zone.Split()
		dim := leaf.zone.Depth % dims
		leaf.dim, leaf.mid = dim, lower.Hi[dim]
		lo := &treeNode{zone: lower, owner: leaf.owner}
		hi := &treeNode{zone: upper, owner: leaf.owner}
		if lower.Contains(point) {
			lo.owner = i
		} else {
			hi.owner = i
		}
		leaf.lo, leaf.hi = lo, hi
		leaf.owner = -1
		leaves = append(leaves, lo, hi)
	}

	// Every node owns exactly one final leaf: a join splits one leaf and
	// hands each half to one owner.
	now := routers[0].env.Now()
	finals := leaves[:0]
	for _, l := range leaves {
		if l.lo == nil {
			finals = append(finals, l)
			r := routers[l.owner]
			r.zones, r.joined = []Zone{l.zone.Clone()}, true
		}
	}
	// Find each leaf's adjacent leaves by searching the split tree instead
	// of testing all O(n²) leaf pairs (5×10⁹ Adjacent calls at n=100k).
	// An internal node's zone is a superset of every leaf below it, so
	// a subtree can contain a neighbor of q only if its box overlaps or
	// abuts q's span in every dimension — the same per-dimension test
	// Adjacent applies, relaxed to the ancestor box. Each query visits
	// the O(depth) path plus the leaves touching q's faces, making the
	// whole pass O(n·(log n + neighbors)).
	couldTouch := func(box, q Zone) bool {
		for i := range q.Lo {
			if !overlap1(box.Lo[i], box.Hi[i], q.Lo[i], q.Hi[i]) &&
				!abut1(box.Lo[i], box.Hi[i], q.Lo[i], q.Hi[i]) {
				return false
			}
		}
		return true
	}
	var found []neighborInfo
	stack := make([]*treeNode, 0, 64)
	for _, q := range finals {
		found = found[:0]
		stack = append(stack[:0], sm.root)
		for len(stack) > 0 {
			nd := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if !couldTouch(nd.zone, q.zone) {
				continue
			}
			if nd.lo != nil {
				stack = append(stack, nd.lo, nd.hi)
			} else if nd.owner != q.owner && Adjacent(nd.zone, q.zone) {
				nb := routers[nd.owner]
				found = append(found, neighborInfo{addr: nb.env.Addr(), zones: nb.zones, lastHeard: now})
			}
		}
		// One allocation per table, sized to it: append's doubling slack
		// would be a per-node cost at scale.
		slices.SortFunc(found, byAddr)
		routers[q.owner].neighbors = slices.Clone(found)
	}
	for _, r := range routers {
		r.startMaintenance()
		r.fireLocChange()
	}
	return sm
}

func (m *SpaceMap) locate(p []uint32) *treeNode {
	n := m.root
	for n.lo != nil {
		if uint64(p[n.dim]) < n.mid {
			n = n.lo
		} else {
			n = n.hi
		}
	}
	return n
}

// Owner returns the index of the node responsible for k.
func (m *SpaceMap) Owner(k dht.Key) int { return m.locate(k.Point(m.dims)).owner }

// OwnerOf returns the index of the node responsible for
// (namespace, resourceID).
func (m *SpaceMap) OwnerOf(namespace, resourceID string) int {
	return m.Owner(dht.KeyOf(namespace, resourceID))
}
