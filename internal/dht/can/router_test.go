package can

import (
	"fmt"
	"testing"
	"time"

	"pier/internal/dht"
	"pier/internal/env"
	"pier/internal/simnet"
	"pier/internal/topology"
)

// testNet wires n CAN routers onto a simulated network.
type testNet struct {
	nw      *simnet.Network
	envs    []*simnet.NodeEnv
	routers []*Router
	// tap, when set, sees every message node `to` is about to handle.
	tap func(to int, from env.Addr, m env.Message)
}

func newTestNet(t *testing.T, n int, cfg Config) *testNet {
	t.Helper()
	tn := &testNet{nw: simnet.New(topology.NewFullMeshInfinite(), 7)}
	for i := 0; i < n; i++ {
		tn.add(cfg)
	}
	return tn
}

// add attaches one more node with an unjoined router.
func (tn *testNet) add(cfg Config) (*simnet.NodeEnv, *Router) {
	e := tn.nw.AddNode()
	tn.envs = append(tn.envs, e)
	tn.routers = append(tn.routers, nil)
	return e, tn.restart(e.Index(), cfg)
}

// restart gives node i a fresh router under its old address; the old
// one hears nothing more, as after a crash.
func (tn *testNet) restart(i int, cfg Config) *Router {
	if old := tn.routers[i]; old != nil && old.stopMaint != nil {
		old.stopMaint()
	}
	r := New(tn.envs[i], cfg)
	tn.envs[i].SetHandler(env.HandlerFunc(func(from env.Addr, m env.Message) {
		if tn.tap != nil {
			tn.tap(i, from, m)
		}
		r.HandleMessage(from, m)
	}))
	tn.routers[i] = r
	return r
}

// joinAll performs protocol joins sequentially through node 0.
func (tn *testNet) joinAll() {
	tn.routers[0].Join(env.NilAddr)
	for i := 1; i < len(tn.routers); i++ {
		r := tn.routers[i]
		landmark := tn.envs[0].Addr()
		tn.envs[i].Post(func() { r.Join(landmark) })
		tn.nw.RunFor(2 * time.Minute)
	}
}

func (tn *testNet) checkInvariants(t *testing.T) {
	t.Helper()
	vol := 0.0
	for i, r := range tn.routers {
		if !tn.nw.Alive(i) {
			continue
		}
		for _, z := range r.Zones() {
			vol += z.Volume()
		}
	}
	if vol < 0.999999 || vol > 1.000001 {
		t.Fatalf("zones cover %v of the space, want 1", vol)
	}
}

func TestProtocolJoinPartitionsSpace(t *testing.T) {
	for _, n := range []int{1, 2, 3, 8, 17} {
		t.Run(fmt.Sprint(n), func(t *testing.T) {
			tn := newTestNet(t, n, DefaultConfig())
			tn.joinAll()
			tn.checkInvariants(t)
			for i, r := range tn.routers {
				if !r.Ready() {
					t.Fatalf("node %d not ready after join", i)
				}
				if n > 1 && len(r.Neighbors()) == 0 {
					t.Fatalf("node %d has no neighbors", i)
				}
			}
		})
	}
}

func TestNeighborSymmetryAfterJoins(t *testing.T) {
	tn := newTestNet(t, 12, DefaultConfig())
	tn.joinAll()
	for i, r := range tn.routers {
		for _, a := range r.Neighbors() {
			j := addrIndex(t, a)
			found := false
			for _, back := range tn.routers[j].Neighbors() {
				if back == tn.envs[i].Addr() {
					found = true
				}
			}
			if !found {
				t.Fatalf("asymmetric link: %d knows %d but not vice versa", i, j)
			}
		}
	}
}

func addrIndex(t *testing.T, a env.Addr) int {
	t.Helper()
	var i int
	if _, err := fmt.Sscanf(string(a), "sim:%d", &i); err != nil {
		t.Fatalf("bad addr %q", a)
	}
	return i
}

func TestLookupFindsUniqueOwner(t *testing.T) {
	tn := newTestNet(t, 16, DefaultConfig())
	tn.joinAll()
	for trial := 0; trial < 60; trial++ {
		k := dht.KeyOf("ns", fmt.Sprint(trial))
		owners := 0
		var ownerAddr env.Addr
		for i, r := range tn.routers {
			if r.Owns(k) {
				owners++
				ownerAddr = tn.envs[i].Addr()
			}
		}
		if owners != 1 {
			t.Fatalf("key %v owned by %d nodes", k, owners)
		}
		var got env.Addr
		done := false
		r := tn.routers[5]
		tn.envs[5].Post(func() {
			r.Lookup(k, func(a env.Addr) { got, done = a, true })
		})
		tn.nw.RunFor(time.Minute)
		if !done {
			t.Fatalf("lookup for %v did not complete", k)
		}
		if got != ownerAddr {
			t.Fatalf("lookup returned %v, owner is %v", got, ownerAddr)
		}
	}
}

func TestLocalLookupSynchronous(t *testing.T) {
	tn := newTestNet(t, 1, DefaultConfig())
	tn.routers[0].Join(env.NilAddr)
	done := false
	tn.routers[0].Lookup(dht.KeyOf("a", "b"), func(a env.Addr) {
		if a != tn.envs[0].Addr() {
			t.Errorf("local lookup returned %v", a)
		}
		done = true
	})
	if !done {
		t.Fatal("footnote 3: local lookups must return synchronously")
	}
}

func TestBootstrapMatchesOracle(t *testing.T) {
	tn := newTestNet(t, 64, DefaultConfig())
	sm := Bootstrap(tn.routers, 99)
	tn.checkInvariants(t)
	for trial := 0; trial < 100; trial++ {
		k := dht.KeyOf("table", fmt.Sprint(trial))
		want := sm.Owner(k)
		for i, r := range tn.routers {
			if r.Owns(k) != (i == want) {
				t.Fatalf("oracle says %d owns %v; router %d disagrees", want, k, i)
			}
		}
	}
}

func TestBootstrapLookupWorks(t *testing.T) {
	tn := newTestNet(t, 128, DefaultConfig())
	sm := Bootstrap(tn.routers, 3)
	hops := 0
	for trial := 0; trial < 40; trial++ {
		k := dht.KeyOf("t", fmt.Sprint(trial))
		want := tn.envs[sm.Owner(k)].Addr()
		var got env.Addr
		src := tn.routers[trial%len(tn.routers)]
		tn.envs[trial%len(tn.routers)].Post(func() {
			src.Lookup(k, func(a env.Addr) { got = a })
		})
		tn.nw.RunFor(time.Minute)
		if got != want {
			t.Fatalf("trial %d: lookup %v got %v want %v", trial, k, got, want)
		}
		_ = hops
	}
}

func TestLookupHopsScaleAsRoot4(t *testing.T) {
	// §5.5.1: with d=4 the average lookup is about n^(1/4) hops.
	if testing.Short() {
		t.Skip("short mode")
	}
	tn := newTestNet(t, 256, DefaultConfig())
	sm := Bootstrap(tn.routers, 17)
	src := tn.routers[0]
	n := 0
	for trial := 0; trial < 100; trial++ {
		k := dht.KeyOf("x", fmt.Sprint(trial))
		if sm.Owner(k) == 0 {
			continue
		}
		tn.envs[0].Post(func() { src.Lookup(k, func(env.Addr) {}) })
		n++
	}
	tn.nw.RunFor(10 * time.Minute)
	avg := float64(src.LookupHops) / float64(n)
	// n^(1/4) = 4 for 256 nodes; allow generous slack for greedy routing.
	if avg < 1 || avg > 12 {
		t.Fatalf("average hops = %.2f, want around 4", avg)
	}
}

func TestGracefulLeaveHandsOverZone(t *testing.T) {
	tn := newTestNet(t, 8, DefaultConfig())
	tn.joinAll()
	leaver := tn.routers[3]
	tn.envs[3].Post(func() { leaver.Leave() })
	tn.nw.RunFor(time.Minute)
	tn.nw.Kill(3) // node is gone from the network after leaving
	tn.checkInvariants(t)
	if leaver.Ready() {
		t.Fatal("leaver still ready")
	}
}

func TestFailureTakeoverRestoresCoverage(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Maintenance = true
	tn := newTestNet(t, 10, cfg)
	tn.joinAll()
	// Let keepalives propagate neighbor tables (needed for takeover).
	tn.nw.RunFor(12 * time.Second)
	tn.nw.Kill(4)
	// Failure detection at 15s + keepalive period slack.
	tn.nw.RunFor(90 * time.Second)
	tn.checkInvariants(t)
	// Lookups into the dead node's old space must now succeed.
	ok := 0
	for trial := 0; trial < 30; trial++ {
		k := dht.KeyOf("y", fmt.Sprint(trial))
		var got env.Addr
		tn.envs[0].Post(func() { tn.routers[0].Lookup(k, func(a env.Addr) { got = a }) })
		tn.nw.RunFor(2 * time.Minute)
		if got != env.NilAddr && got != tn.envs[4].Addr() {
			ok++
		}
	}
	if ok < 28 {
		t.Fatalf("only %d/30 lookups succeeded after takeover", ok)
	}
}

func TestJoinAfterFailureHeals(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Maintenance = true
	tn := newTestNet(t, 6, cfg)
	tn.joinAll()
	tn.nw.RunFor(12 * time.Second)
	tn.nw.Kill(2)
	tn.nw.RunFor(60 * time.Second)
	// A replacement node joins through node 0.
	e, r := tn.add(cfg)
	landmark := tn.envs[0].Addr()
	e.Post(func() { r.Join(landmark) })
	tn.nw.RunFor(2 * time.Minute)
	if !r.Ready() {
		t.Fatal("replacement node failed to join after a failure")
	}
	tn.checkInvariants(t)
}
