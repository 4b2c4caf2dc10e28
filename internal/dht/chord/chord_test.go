package chord

import (
	"fmt"
	"sort"
	"testing"
	"time"

	"pier/internal/dht"
	"pier/internal/env"
	"pier/internal/simnet"
	"pier/internal/topology"
)

type testNet struct {
	nw      *simnet.Network
	envs    []*simnet.NodeEnv
	routers []*Router
}

func newTestNet(t *testing.T, n int, cfg Config) *testNet {
	t.Helper()
	tn := &testNet{nw: simnet.New(topology.NewFullMeshInfinite(), 5)}
	for i := 0; i < n; i++ {
		e := tn.nw.AddNode()
		r := New(e, cfg)
		e.SetHandler(env.HandlerFunc(func(from env.Addr, m env.Message) {
			r.HandleMessage(from, m)
		}))
		tn.envs = append(tn.envs, e)
		tn.routers = append(tn.routers, r)
	}
	return tn
}

func TestBetween(t *testing.T) {
	cases := []struct {
		a, x, b uint64
		want    bool
	}{
		{1, 5, 10, true},
		{1, 10, 10, true},
		{1, 1, 10, false},
		{1, 11, 10, false},
		{10, 12, 2, true}, // wrapped
		{10, 1, 2, true},
		{10, 5, 2, false},
		{7, 7, 7, true}, // (a,a] wraps the whole circle, ending at a inclusive
		{7, 99, 7, true},
	}
	for _, c := range cases {
		if got := between(c.a, c.x, c.b); got != c.want {
			t.Errorf("between(%d,%d,%d) = %v, want %v", c.a, c.x, c.b, got, c.want)
		}
	}
}

func TestBootstrapRingExactOwnership(t *testing.T) {
	tn := newTestNet(t, 50, Config{})
	Bootstrap(tn.routers)
	for trial := 0; trial < 200; trial++ {
		k := dht.KeyOf("t", fmt.Sprint(trial))
		owners := 0
		for _, r := range tn.routers {
			if r.Owns(k) {
				owners++
			}
		}
		if owners != 1 {
			t.Fatalf("key %v owned by %d nodes, want 1", k, owners)
		}
	}
}

func TestBootstrapLookupAgreesWithOwns(t *testing.T) {
	tn := newTestNet(t, 64, Config{})
	Bootstrap(tn.routers)
	for trial := 0; trial < 50; trial++ {
		k := dht.KeyOf("x", fmt.Sprint(trial))
		var want env.Addr
		for i, r := range tn.routers {
			if r.Owns(k) {
				want = tn.envs[i].Addr()
			}
		}
		var got env.Addr
		src := tn.routers[trial%64]
		tn.envs[trial%64].Post(func() { src.Lookup(k, func(a env.Addr) { got = a }) })
		tn.nw.RunFor(time.Minute)
		if got != want {
			t.Fatalf("trial %d: lookup = %v, owner = %v", trial, got, want)
		}
	}
}

func TestLookupHopsLogarithmic(t *testing.T) {
	tn := newTestNet(t, 256, Config{})
	Bootstrap(tn.routers)
	src := tn.routers[0]
	n := 0
	for trial := 0; trial < 100; trial++ {
		k := dht.KeyOf("h", fmt.Sprint(trial))
		if src.Owns(k) {
			continue
		}
		tn.envs[0].Post(func() { src.Lookup(k, func(env.Addr) {}) })
		n++
	}
	tn.nw.RunFor(10 * time.Minute)
	_, hops := src.LookupStats()
	avg := float64(hops) / float64(n)
	// log2(256) = 8; perfect fingers halve distance every hop.
	if avg < 1 || avg > 10 {
		t.Fatalf("average hops = %.2f, want around 4-8", avg)
	}
}

func TestIDOfDeterministic(t *testing.T) {
	if IDOf("a") != IDOf("a") || IDOf("a") == IDOf("b") {
		t.Fatal("IDOf must be a deterministic hash")
	}
}

// TestEstimateNodesSmallAndLargeRings: small bootstrapped rings wrap
// the successor list past the node itself and must report the exact
// ring size, not 1; larger rings estimate from successor density.
func TestEstimateNodesSmallAndLargeRings(t *testing.T) {
	for _, n := range []int{1, 2, 5, 8} {
		tn := newTestNet(t, n, Config{})
		Bootstrap(tn.routers)
		for i, r := range tn.routers {
			if got := r.EstimateNodes(); got != n {
				t.Fatalf("n=%d: router %d estimates %d", n, i, got)
			}
		}
	}
	// Density regime: per-node estimates carry ~1/sqrt(k) noise, so
	// assert the median across the ring lands within 2x of the truth
	// and every node at least knows it is not alone.
	const n = 64
	tn := newTestNet(t, n, Config{})
	Bootstrap(tn.routers)
	ests := make([]int, 0, n)
	for i, r := range tn.routers {
		got := r.EstimateNodes()
		if got <= len(r.succs)/2 {
			t.Fatalf("n=%d: router %d estimates %d despite %d live successors", n, i, got, len(r.succs))
		}
		ests = append(ests, got)
	}
	sort.Ints(ests)
	if med := ests[n/2]; med < n/2 || med > 2*n {
		t.Fatalf("n=%d: median estimate %d, want within 2x", n, med)
	}
}

// TestLoneNodeWithMaintenanceSurvives: the first node of a ring is its
// own successor, so its maintenance ticks route find-finger requests to
// itself before any other request was made; they must not need state
// that only a stabilize probe to another node would have created.
func TestLoneNodeWithMaintenanceSurvives(t *testing.T) {
	tn := newTestNet(t, 1, Config{Maintenance: true})
	r := tn.routers[0]
	tn.envs[0].Post(func() { r.Join(env.NilAddr) })
	tn.nw.RunFor(10 * time.Second)
	if !r.Ready() || !r.Owns(dht.KeyOf("ns", "k")) {
		t.Fatal("the lone node is not serving its ring")
	}
	if f := r.fingers[0]; f.addr != tn.envs[0].Addr() {
		t.Fatalf("finger 0 is %q after three ticks, want the node itself", f.addr)
	}
}
