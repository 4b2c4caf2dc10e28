package provider

import (
	"fmt"
	"testing"
	"time"

	"pier/internal/dht"
	"pier/internal/dht/can"
	"pier/internal/dht/storage"
	"pier/internal/env"
	"pier/internal/simnet"
	"pier/internal/topology"
)

type payload struct{ N int }

func (p *payload) WireSize() int { return 64 }

type testNet struct {
	nw    *simnet.Network
	envs  []*simnet.NodeEnv
	cans  []*can.Router
	provs []*Provider
	sm    *can.SpaceMap
}

func newTestNet(t *testing.T, n int, pcfg Config) *testNet {
	t.Helper()
	tn := &testNet{nw: simnet.New(topology.NewFullMeshInfinite(), 11)}
	for i := 0; i < n; i++ {
		e := tn.nw.AddNode()
		r := can.New(e, can.DefaultConfig())
		p := New(e, r, pcfg, nil)
		e.SetHandler(env.HandlerFunc(func(from env.Addr, m env.Message) {
			if r.HandleMessage(from, m) {
				return
			}
			p.HandleMessage(from, m)
		}))
		tn.envs = append(tn.envs, e)
		tn.cans = append(tn.cans, r)
		tn.provs = append(tn.provs, p)
	}
	tn.sm = can.Bootstrap(tn.cans, 23)
	return tn
}

func TestPutGetRoundTrip(t *testing.T) {
	tn := newTestNet(t, 16, Config{})
	tn.envs[3].Post(func() {
		tn.provs[3].Put("rel", "key1", 1, &payload{N: 42}, time.Hour)
	})
	tn.nw.RunFor(time.Minute)

	// The item must be stored exactly at the responsible node.
	owner := tn.sm.OwnerOf("rel", "key1")
	if got := tn.provs[owner].Store().Len("rel"); got != 1 {
		t.Fatalf("owner stores %d items, want 1", got)
	}
	for i, p := range tn.provs {
		if i != owner && p.Store().Len("rel") != 0 {
			t.Fatalf("non-owner %d stores items", i)
		}
	}

	var got []*storage.Item
	tn.envs[7].Post(func() {
		tn.provs[7].Get("rel", "key1", func(items []*storage.Item) { got = items })
	})
	tn.nw.RunFor(time.Minute)
	if len(got) != 1 || got[0].Payload.(*payload).N != 42 {
		t.Fatalf("get returned %v", got)
	}
}

func TestGetIsKeyBasedAndMayReturnMultiple(t *testing.T) {
	tn := newTestNet(t, 8, Config{})
	tn.envs[0].Post(func() {
		tn.provs[0].Put("rel", "k", 1, &payload{N: 1}, time.Hour)
		tn.provs[0].Put("rel", "k", 2, &payload{N: 2}, time.Hour)
	})
	tn.nw.RunFor(time.Minute)
	var got []*storage.Item
	tn.envs[1].Post(func() {
		tn.provs[1].Get("rel", "k", func(items []*storage.Item) { got = items })
	})
	tn.nw.RunFor(time.Minute)
	if len(got) != 2 {
		t.Fatalf("get returned %d items, want 2 (instanceIDs separate same-key items)", len(got))
	}
}

func TestLocalGetSynchronous(t *testing.T) {
	tn := newTestNet(t, 4, Config{})
	// Find a key owned by node 2 and put from node 2.
	rid := ""
	for i := 0; ; i++ {
		cand := fmt.Sprint("x", i)
		if tn.sm.OwnerOf("ns", cand) == 2 {
			rid = cand
			break
		}
	}
	done := false
	tn.envs[2].Post(func() {
		tn.provs[2].Put("ns", rid, 1, &payload{N: 9}, time.Hour)
		tn.provs[2].Get("ns", rid, func(items []*storage.Item) {
			done = len(items) == 1
		})
		if !done {
			t.Error("local get must complete synchronously")
		}
	})
	tn.nw.RunFor(time.Second)
	if !done {
		t.Fatal("local get failed")
	}
}

func TestGetMissingKeyReturnsEmpty(t *testing.T) {
	tn := newTestNet(t, 8, Config{})
	called := false
	var got []*storage.Item
	tn.envs[0].Post(func() {
		tn.provs[0].Get("none", "nothing", func(items []*storage.Item) {
			called, got = true, items
		})
	})
	tn.nw.RunFor(time.Minute)
	if !called || len(got) != 0 {
		t.Fatalf("called=%v items=%v", called, got)
	}
}

func TestSoftStateExpiryAndRenew(t *testing.T) {
	tn := newTestNet(t, 8, Config{})
	tn.envs[0].Post(func() {
		tn.provs[0].Put("rel", "dies", 1, &payload{N: 1}, 30*time.Second)
		tn.provs[0].Put("rel", "lives", 1, &payload{N: 2}, 30*time.Second)
	})
	tn.nw.RunFor(20 * time.Second)
	// Renew only "lives".
	tn.envs[0].Post(func() {
		tn.provs[0].Renew("rel", "lives", 1, &payload{N: 2}, 30*time.Second)
	})
	tn.nw.RunFor(25 * time.Second) // t=45s: "dies" expired, "lives" renewed to t=65s

	var dead, live []*storage.Item
	tn.envs[1].Post(func() {
		tn.provs[1].Get("rel", "dies", func(items []*storage.Item) { dead = items })
		tn.provs[1].Get("rel", "lives", func(items []*storage.Item) { live = items })
	})
	tn.nw.RunFor(time.Minute)
	if len(dead) != 0 {
		t.Fatalf("unrenewed item survived: %v", dead)
	}
	if len(live) != 1 {
		t.Fatalf("renewed item lost: %v", live)
	}
}

func TestNewDataCallback(t *testing.T) {
	tn := newTestNet(t, 8, Config{})
	owner := tn.sm.OwnerOf("rel", "kk")
	var got []*storage.Item
	tn.envs[owner].Post(func() {
		tn.provs[owner].OnNewData("rel", func(it *storage.Item) { got = append(got, it) })
	})
	tn.envs[3].Post(func() {
		tn.provs[3].Put("rel", "kk", 7, &payload{N: 5}, time.Hour)
	})
	tn.nw.RunFor(time.Minute)
	if len(got) != 1 || got[0].InstanceID != 7 {
		t.Fatalf("newData callback got %v", got)
	}
}

func TestNewDataUnsubscribe(t *testing.T) {
	tn := newTestNet(t, 4, Config{})
	count := 0
	var unsub func()
	tn.envs[0].Post(func() {
		unsub = tn.provs[0].OnNewData("rel", func(*storage.Item) { count++ })
	})
	tn.nw.RunFor(time.Second)
	tn.envs[0].Post(func() {
		tn.provs[0].StoreLocal(&storage.Item{Namespace: "rel", ResourceID: "a", InstanceID: 1, Payload: &payload{}})
		unsub()
		tn.provs[0].StoreLocal(&storage.Item{Namespace: "rel", ResourceID: "b", InstanceID: 2, Payload: &payload{}})
	})
	tn.nw.RunFor(time.Second)
	if count != 1 {
		t.Fatalf("callback fired %d times, want 1", count)
	}
}

// TestNewDataHandlerRemovedMidDeliveryIsSkipped: a store's handlers run
// in registration order; one unsubscribed by an earlier handler of the
// same delivery no longer runs, and one registered during a delivery
// waits for the next.
func TestNewDataHandlerRemovedMidDeliveryIsSkipped(t *testing.T) {
	p := newTestNet(t, 1, Config{}).provs[0]
	var order []string
	var unsubC func()
	p.OnNewData("rel", func(*storage.Item) {
		order = append(order, "a")
		if unsubC != nil {
			unsubC()
			unsubC = nil
			p.OnNewData("rel", func(*storage.Item) { order = append(order, "d") })
		}
	})
	p.OnNewData("rel", func(*storage.Item) { order = append(order, "b") })
	unsubC = p.OnNewData("rel", func(*storage.Item) { order = append(order, "c") })
	p.OnNewData("other", func(*storage.Item) { order = append(order, "x") })
	it := &storage.Item{Namespace: "rel", ResourceID: "a", InstanceID: 1, Payload: &payload{}}
	p.StoreLocal(it)
	p.StoreLocal(it)
	if got := fmt.Sprint(order); got != "[a b a b d]" {
		t.Fatalf("delivery order %s, want [a b a b d]", got)
	}
}

// TestNewDataDeliveryAllocatesNothing: every rehashed tuple reaches its
// join's probe through this hand-off, so it must not allocate.
func TestNewDataDeliveryAllocatesNothing(t *testing.T) {
	p := newTestNet(t, 1, Config{}).provs[0]
	n := 0
	for i := 0; i < 3; i++ {
		p.OnNewData("rel", func(*storage.Item) { n++ })
	}
	it := &storage.Item{Namespace: "rel", ResourceID: "a", InstanceID: 1, Payload: &payload{}}
	p.StoreLocal(it)
	if a := testing.AllocsPerRun(100, func() { p.StoreLocal(it) }); a != 0 {
		t.Errorf("a store into a subscribed namespace costs %.1f allocations, want 0", a)
	}
	if n != 3*102 {
		t.Fatalf("%d handler calls, want %d", n, 3*102)
	}
}

func TestMulticastReachesAllNodesOnce(t *testing.T) {
	tn := newTestNet(t, 32, Config{})
	counts := make([]int, 32)
	for i := range tn.provs {
		i := i
		tn.envs[i].Post(func() {
			tn.provs[i].OnMulticast(func(origin env.Addr, ns string, m env.Message) {
				if ns == "q" {
					counts[i]++
				}
			})
		})
	}
	tn.nw.RunFor(time.Second)
	tn.envs[5].Post(func() {
		tn.provs[5].Multicast("q", &payload{N: 1})
	})
	tn.nw.RunFor(5 * time.Minute)
	for i, c := range counts {
		if c != 1 {
			t.Fatalf("node %d delivered %d times, want exactly 1", i, c)
		}
	}
}

func TestMulticastSkipsFailedNodesButReachesRest(t *testing.T) {
	tn := newTestNet(t, 32, Config{})
	counts := make([]int, 32)
	for i := range tn.provs {
		i := i
		tn.envs[i].Post(func() {
			tn.provs[i].OnMulticast(func(origin env.Addr, ns string, m env.Message) { counts[i]++ })
		})
	}
	tn.nw.Kill(9)
	tn.envs[0].Post(func() { tn.provs[0].Multicast("q", &payload{}) })
	tn.nw.RunFor(5 * time.Minute)
	reached := 0
	for i, c := range counts {
		if i == 9 {
			if c != 0 {
				t.Fatal("dead node received multicast")
			}
			continue
		}
		if c >= 1 {
			reached++
		}
	}
	// Flooding routes around a single failure in a well-connected CAN.
	if reached < 30 {
		t.Fatalf("multicast reached %d/31 live nodes", reached)
	}
}

func TestHandoffAfterJoinMovesItems(t *testing.T) {
	// Build a 2-node network by protocol so the second join splits the
	// first node's zone; items in the transferred half must move.
	nw := simnet.New(topology.NewFullMeshInfinite(), 3)
	var envs []*simnet.NodeEnv
	var cans []*can.Router
	var provs []*Provider
	for i := 0; i < 2; i++ {
		e := nw.AddNode()
		r := can.New(e, can.DefaultConfig())
		p := New(e, r, Config{}, nil)
		e.SetHandler(env.HandlerFunc(func(from env.Addr, m env.Message) {
			if r.HandleMessage(from, m) {
				return
			}
			p.HandleMessage(from, m)
		}))
		envs = append(envs, e)
		cans = append(cans, r)
		provs = append(provs, p)
	}
	cans[0].Join(env.NilAddr)
	// Load 200 items on node 0 (owner of everything).
	envs[0].Post(func() {
		for i := 0; i < 200; i++ {
			provs[0].Put("rel", fmt.Sprint("k", i), 1, &payload{N: i}, time.Hour)
		}
	})
	nw.RunFor(time.Second)
	landmark := envs[0].Addr()
	envs[1].Post(func() { cans[1].Join(landmark) })
	nw.RunFor(time.Minute)

	moved := provs[1].Store().Len("rel")
	kept := provs[0].Store().Len("rel")
	if moved+kept != 200 {
		t.Fatalf("items lost in handoff: %d + %d != 200", moved, kept)
	}
	if moved == 0 {
		t.Fatal("no items moved to the new node")
	}
	// Every item must now reside at its responsible node.
	bad := 0
	for i, p := range provs {
		i := i
		p.Store().Scan("rel", func(it *storage.Item) bool {
			if !cans[i].Owns(dht.KeyOf(it.Namespace, it.ResourceID)) {
				bad++
			}
			return true
		})
	}
	if bad != 0 {
		t.Fatalf("%d items stored at non-owners after handoff", bad)
	}
}

func TestGetAfterRemapChasesOwner(t *testing.T) {
	// Get issued against a stale owner must still return the items via
	// one forwarding hop (§4.1's "additional round trip").
	tn := newTestNet(t, 8, Config{})
	owner := tn.sm.OwnerOf("rel", "k")
	tn.envs[owner].Post(func() {
		tn.provs[owner].Put("rel", "k", 1, &payload{N: 1}, time.Hour)
	})
	tn.nw.RunFor(time.Second)
	// Simulate a stale lookup by sending the getMsg to the wrong node.
	wrong := (owner + 1) % 8
	var got []*storage.Item
	done := false
	tn.envs[3].Post(func() {
		n := tn.provs[3].gets.Start(tn.envs[3], time.Minute, func(items []*storage.Item) { got, done = items, true })
		tn.envs[3].Send(tn.envs[wrong].Addr(), &getMsg{NS: "rel", RID: "k", Nonce: n, Origin: tn.envs[3].Addr()})
	})
	tn.nw.RunFor(2 * time.Minute)
	if !done || len(got) != 1 {
		t.Fatalf("forwarded get failed: done=%v items=%v", done, got)
	}
}

// TestMulticastUnsubscribeStopsDelivery: an unsubscribed handler sees no
// later multicast.
func TestMulticastUnsubscribeStopsDelivery(t *testing.T) {
	tn := newTestNet(t, 4, Config{})
	extra := 0
	var unsub func()
	tn.envs[1].Post(func() {
		unsub = tn.provs[1].OnMulticast(func(env.Addr, string, env.Message) { extra++ })
	})
	tn.envs[0].Post(func() { tn.provs[0].Multicast("q", &payload{}) })
	tn.nw.RunFor(time.Minute)
	if extra != 1 {
		t.Fatalf("the handler saw %d deliveries, want 1", extra)
	}
	tn.envs[1].Post(func() { unsub() })
	tn.envs[0].Post(func() { tn.provs[0].Multicast("q", &payload{}) })
	tn.nw.RunFor(time.Minute)
	if extra != 1 {
		t.Fatalf("the handler fired after unsubscribing (%d deliveries)", extra)
	}
}

// TestMulticastHandlerRemovedMidDeliveryIsSkipped: handlers run in
// registration order; one unsubscribed by an earlier handler of the same
// delivery no longer runs, and one registered during a delivery waits
// for the next.
func TestMulticastHandlerRemovedMidDeliveryIsSkipped(t *testing.T) {
	tn := newTestNet(t, 1, Config{})
	p := tn.provs[0]
	var order []string
	var unsubC func()
	p.OnMulticast(func(env.Addr, string, env.Message) {
		order = append(order, "a")
		if unsubC != nil {
			unsubC()
			unsubC = nil
			p.OnMulticast(func(env.Addr, string, env.Message) { order = append(order, "d") })
		}
	})
	p.OnMulticast(func(env.Addr, string, env.Message) { order = append(order, "b") })
	unsubC = p.OnMulticast(func(env.Addr, string, env.Message) { order = append(order, "c") })
	p.Multicast("q", &payload{})
	p.Multicast("q", &payload{})
	if got := fmt.Sprint(order); got != "[a b a b d]" {
		t.Fatalf("delivery order %s, want [a b a b d]", got)
	}
}

// TestMulticastDeliveryAllocatesNothing: every node hands every flood to
// its handlers, so the hand-off itself must not allocate.
func TestMulticastDeliveryAllocatesNothing(t *testing.T) {
	p := newTestNet(t, 1, Config{}).provs[0]
	n := 0
	for i := 0; i < 3; i++ {
		p.OnMulticast(func(env.Addr, string, env.Message) { n++ })
	}
	np := &nsPayload{NS: "q", Payload: &payload{}}
	if a := testing.AllocsPerRun(100, func() { p.deliverMulticast("sim:1", np) }); a != 0 {
		t.Errorf("a delivery costs %.1f allocations, want 0", a)
	}
	if n != 3*101 {
		t.Fatalf("%d handler calls, want %d", n, 3*101)
	}
}
