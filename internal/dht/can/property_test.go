package can

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"pier/internal/dht"
	"pier/internal/env"
	"pier/internal/simnet"
	"pier/internal/topology"
)

// TestProtocolJoinInvariantsProperty drives the full join protocol with
// random landmark choices and checks the CAN invariants afterwards:
// zones tile the space, links are symmetric, every key has exactly one
// owner, and lookups from random sources find it.
func TestProtocolJoinInvariantsProperty(t *testing.T) {
	check := func(seed int64, size uint8) bool {
		n := 3 + int(size%14)
		nw := simnet.New(topology.NewFullMeshInfinite(), seed)
		rng := rand.New(rand.NewSource(seed))
		var envs []*simnet.NodeEnv
		var routers []*Router
		for i := 0; i < n; i++ {
			e := nw.AddNode()
			r := New(e, DefaultConfig())
			e.SetHandler(env.HandlerFunc(func(from env.Addr, m env.Message) {
				r.HandleMessage(from, m)
			}))
			envs = append(envs, e)
			routers = append(routers, r)
		}
		routers[0].Join(env.NilAddr)
		for i := 1; i < n; i++ {
			i := i
			landmark := envs[rng.Intn(i)].Addr() // any existing node works
			envs[i].Post(func() { routers[i].Join(landmark) })
			nw.RunFor(2 * time.Minute)
		}
		// Invariant: full coverage.
		vol := 0.0
		for _, r := range routers {
			vol += TotalVolume(r.Zones())
		}
		if vol < 0.999999 || vol > 1.000001 {
			return false
		}
		// Invariant: link symmetry.
		byAddr := map[env.Addr]*Router{}
		for i, r := range routers {
			byAddr[envs[i].Addr()] = r
		}
		for i, r := range routers {
			self := envs[i].Addr()
			for _, nb := range r.Neighbors() {
				back := false
				for _, x := range byAddr[nb].Neighbors() {
					if x == self {
						back = true
					}
				}
				if !back {
					return false
				}
			}
		}
		// Invariant: single ownership + routable.
		for trial := 0; trial < 10; trial++ {
			k := dht.KeyOf("p", fmt.Sprint(seed, trial))
			owners := 0
			var owner env.Addr
			for i, r := range routers {
				if r.Owns(k) {
					owners++
					owner = envs[i].Addr()
				}
			}
			if owners != 1 {
				return false
			}
			src := rng.Intn(n)
			var got env.Addr
			envs[src].Post(func() { routers[src].Lookup(k, func(a env.Addr) { got = a }) })
			nw.RunFor(2 * time.Minute)
			if got != owner {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 12}); err != nil {
		t.Fatal(err)
	}
}

// TestBootstrapInvariantsProperty checks the fast-construction path at
// random sizes and seeds.
func TestBootstrapInvariantsProperty(t *testing.T) {
	check := func(seed int64, size uint16) bool {
		n := 1 + int(size%300)
		nw := simnet.New(topology.NewFullMeshInfinite(), seed)
		routers := make([]*Router, n)
		for i := range routers {
			e := nw.AddNode()
			r := New(e, DefaultConfig())
			e.SetHandler(env.HandlerFunc(func(from env.Addr, m env.Message) { r.HandleMessage(from, m) }))
			routers[i] = r
		}
		sm := Bootstrap(routers, seed)
		vol := 0.0
		for _, r := range routers {
			vol += TotalVolume(r.Zones())
		}
		if vol < 0.999999 || vol > 1.000001 {
			return false
		}
		for trial := 0; trial < 20; trial++ {
			k := dht.KeyOf("b", fmt.Sprint(trial))
			want := sm.Owner(k)
			for i, r := range routers {
				if r.Owns(k) != (i == want) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// TestBootstrapNeighborsMatchBruteForce pins the split-tree adjacency
// search against the definitional check: after Bootstrap, node j is in
// node i's neighbor table exactly when some zone of i is Adjacent to
// some zone of j.
func TestBootstrapNeighborsMatchBruteForce(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		for _, n := range []int{2, 17, 64, 300} {
			nw := simnet.New(topology.NewFullMeshInfinite(), seed)
			routers := make([]*Router, n)
			for i := range routers {
				e := nw.AddNode()
				r := New(e, DefaultConfig())
				e.SetHandler(env.HandlerFunc(func(from env.Addr, m env.Message) { r.HandleMessage(from, m) }))
				routers[i] = r
			}
			Bootstrap(routers, seed)
			for i := 0; i < n; i++ {
				for j := i + 1; j < n; j++ {
					want := AnyAdjacent(routers[i].zones, routers[j].zones)
					gotIJ := routers[i].neighbor(routers[j].env.Addr()) != nil
					gotJI := routers[j].neighbor(routers[i].env.Addr()) != nil
					if gotIJ != want || gotJI != want {
						t.Fatalf("seed=%d n=%d pair (%d,%d): adjacency %v but tables say %v/%v",
							seed, n, i, j, want, gotIJ, gotJI)
					}
				}
			}
		}
	}
}
