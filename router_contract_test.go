package pier

import (
	"fmt"
	"math/bits"
	"testing"
	"time"

	"pier/internal/dht"
	"pier/internal/dht/storage"
	"pier/internal/env"
	"pier/internal/topology"
)

// The routing contract: what the node needs of dht.Router (the paper's
// Table 1), checked once, through SimNetwork, on both overlays with
// maintenance on, as StartNode runs them. After every case has had time
// to repair,
//
//	(1) the live nodes' shares partition the key space: each is
//	    nonzero, and they sum to exactly dht.WholeSpace;
//	(2) every key has exactly one live owner, and Lookup from every
//	    live node and SimNetwork.Owner both name it.
//
// The departure cases add, at the departure,
//
//	(3) a graceful Leave hands every item the leaver held to its key's
//	    new owner, and (1) holds again within the handover; a crash
//	    loses exactly the victim's items.
//
// A leave's (3) is checked again one window later, once the heir's
// maintenance has run. A crash's is not: a few seconds later it fails
// on Chord, where a node whose predecessor is cleared owns nothing and
// hands its whole store away, losing part of it (ROADMAP, "owned
// twice").
//
// Chord ids hash the node's address, so the seed does not move a ring:
// the cases vary fleet sizes instead.
var routerCases = []struct {
	name  string
	sizes []int
	run   func(t *testing.T, sn *SimNetwork)
}{
	{"bootstrap", []int{1, 2, 64}, func(*testing.T, *SimNetwork) {}},
	{"joins", []int{1, 5}, joinUpTo(17)},
	{"leave", []int{2, 10, 16, 24}, depart(true)},
	{"crash", []int{10, 24}, depart(false)},
	{"crashes then a join", []int{8, 24}, func(t *testing.T, sn *SimNetwork) {
		sn.Kill(1)
		sn.RunFor(window)
		sn.Kill(len(sn.Nodes) / 2)
		sn.RunFor(repair)
		checkRouters(t, sn)
		joinUpTo(len(sn.Nodes)+1)(t, sn)
	}},
}

const (
	// window outlasts both overlays' failure detection (CAN: 15 s
	// without a 5 s keepalive; Chord: two unanswered 3 s stabilize
	// probes) and the stabilization of a join.
	window = 30 * time.Second
	// handover is well inside either detection: a graceful leave must
	// not wait for one.
	handover = 2 * time.Second
	// repair outlasts Chord's finger refresh, one of 64 fingers per 3 s
	// tick: until its turn, a finger naming a departed node routes
	// lookups to nowhere.
	repair = 4 * time.Minute
)

func TestRouterContract(t *testing.T) {
	for _, kind := range []DHTKind{CAN, Chord} {
		opts := DefaultOptions()
		opts.DHT = kind
		opts.CANConfig.Maintenance = true
		opts.ChordConfig.Maintenance = true
		for _, c := range routerCases {
			for _, n := range c.sizes {
				t.Run(fmt.Sprintf("%s/%s/%d", []string{"can", "chord"}[kind], c.name, n), func(t *testing.T) {
					sn := NewSimNetwork(n, topology.NewFullMesh(), 1, opts)
					sn.RunFor(time.Minute) // keepalives fill every neighbor table
					c.run(t, sn)
					sn.RunFor(repair)
					checkRouters(t, sn)
				})
			}
		}
	}
}

// joinUpTo grows the network to n nodes by protocol joins through node
// 0, checking (1) and (2) after each.
func joinUpTo(n int) func(*testing.T, *SimNetwork) {
	return func(t *testing.T, sn *SimNetwork) {
		for len(sn.Nodes) < n {
			r := sn.Nodes[sn.Join(0)].Router()
			if r.Ready() || r.Share() != 0 {
				t.Fatalf("a router that has not joined yet is ready (%v) or has share %#x", r.Ready(), r.Share())
			}
			sn.RunFor(window)
			checkRouters(t, sn)
		}
	}
}

// depart loads items, then makes a node that holds some leave or crash
// and checks (3), for a leave twice.
func depart(graceful bool) func(*testing.T, *SimNetwork) {
	return func(t *testing.T, sn *SimNetwork) {
		const items = 200
		for i := 0; i < items; i++ {
			sn.Load("t", fmt.Sprint(i), int64(i), &Tuple{Rel: "t", Vals: []Value{int64(i)}}, 0)
		}
		v := len(sn.Nodes) - 1
		for sn.Nodes[v].Provider().Store().TotalLen() == 0 {
			v--
		}
		kept := items - sn.Nodes[v].Provider().Store().TotalLen()
		if !graceful {
			sn.Kill(v)
			checkItems(t, sn, kept, fmt.Sprintf("at node %d's crash", v))
			return
		}
		sn.Leave(v)
		sn.RunFor(handover)
		checkShares(t, sn)
		checkItems(t, sn, items, fmt.Sprintf("at node %d's leave", v))
		sn.RunFor(window)
		checkItems(t, sn, items, fmt.Sprintf("one window after node %d's leave", v))
	}
}

// checkItems counts the items the live nodes hold, each of which must
// be its key's owner.
func checkItems(t *testing.T, sn *SimNetwork, want int, when string) {
	t.Helper()
	got := 0
	for i, node := range sn.Nodes {
		if !sn.Alive(i) {
			continue
		}
		node.Provider().Scan("t", func(it *storage.Item) bool {
			got++
			if !node.Router().Owns(dht.KeyOf(it.Namespace, it.ResourceID)) {
				t.Errorf("node %d holds item %s but does not own its key", i, it.ResourceID)
			}
			return true
		})
	}
	if got != want {
		t.Fatalf("%d items survive %s, want %d", got, when, want)
	}
}

// checkRouters checks cases (1) and (2).
func checkRouters(t *testing.T, sn *SimNetwork) {
	t.Helper()
	checkShares(t, sn)
	const keys = 32
	var live []int
	for i := range sn.Nodes {
		if sn.Alive(i) {
			live = append(live, i)
		}
	}
	owners := make([]env.Addr, keys)
	answers := make([][]env.Addr, keys)
	for k := range owners {
		rid := fmt.Sprint(k)
		key := dht.KeyOf("contract", rid)
		owner, count := -1, 0
		for _, i := range live {
			if sn.Nodes[i].Router().Owns(key) {
				owner, count = i, count+1
			}
		}
		if count != 1 {
			t.Fatalf("key %s has %d live owners, want 1", rid, count)
		}
		if got := sn.Owner("contract", rid); got != owner {
			t.Fatalf("SimNetwork.Owner names node %d for key %s, its owner is %d", got, rid, owner)
		}
		owners[k] = sn.Nodes[owner].Addr()
		answers[k] = make([]env.Addr, len(live))
		for j, i := range live {
			sn.Nodes[i].Router().Lookup(key, func(a env.Addr) { answers[k][j] = a })
		}
	}
	sn.RunFor(time.Minute)
	for k, owner := range owners {
		for j, a := range answers[k] {
			if a != owner {
				t.Fatalf("node %d's lookup of key %d answered %q, its owner is %s", live[j], k, a, owner)
			}
		}
	}
}

// checkShares checks case (1), summing in 128 bits: two copies of the
// space would wrap a uint64 to 0, and three to dht.WholeSpace.
func checkShares(t *testing.T, sn *SimNetwork) {
	t.Helper()
	var hi, lo, carry uint64
	for i, node := range sn.Nodes {
		if !sn.Alive(i) {
			continue
		}
		r := node.Router()
		if !r.Ready() || r.Share() == 0 {
			t.Fatalf("live node %d: ready %v, share %#x", i, r.Ready(), r.Share())
		}
		lo, carry = bits.Add64(lo, r.Share(), 0)
		hi += carry
	}
	if hi != 0 || lo != dht.WholeSpace {
		t.Fatalf("live shares sum to %.6f of the key space, want exactly 1", 2*float64(hi)+float64(lo)/float64(dht.WholeSpace))
	}
}
