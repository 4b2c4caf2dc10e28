package multicast

import (
	"fmt"
	"testing"

	"pier/internal/dht/can"
	"pier/internal/env"
	"pier/internal/simnet"
	"pier/internal/topology"
)

type note struct{ N int }

func (n *note) WireSize() int { return 100 }

type testNet struct {
	nw       *simnet.Network
	envs     []*simnet.NodeEnv
	flooders []*Flooder
	got      []int // deliveries per node
}

func build(t *testing.T, n int) *testNet {
	t.Helper()
	tn := &testNet{nw: simnet.New(topology.NewFullMeshInfinite(), 9), got: make([]int, n)}
	routers := make([]*can.Router, n)
	for i := 0; i < n; i++ {
		i := i
		e := tn.nw.AddNode()
		r := can.New(e, can.DefaultConfig())
		f := New(e, r)
		f.OnDeliver(func(env.Addr, env.Message) { tn.got[i]++ })
		e.SetHandler(env.HandlerFunc(func(from env.Addr, m env.Message) {
			if r.HandleMessage(from, m) {
				return
			}
			f.HandleMessage(from, m)
		}))
		routers[i] = r
		tn.envs = append(tn.envs, e)
		tn.flooders = append(tn.flooders, f)
	}
	can.Bootstrap(routers, 33)
	return tn
}

func TestDirectedFloodReachesAllExactlyOnce(t *testing.T) {
	for _, n := range []int{1, 2, 5, 32, 128} {
		t.Run(fmt.Sprint(n), func(t *testing.T) {
			tn := build(t, n)
			src := n / 2
			tn.envs[src].Post(func() { tn.flooders[src].Multicast(&note{N: 1}) })
			tn.nw.Drain()
			for i, c := range tn.got {
				if c != 1 {
					t.Fatalf("node %d delivered %d times, want 1", i, c)
				}
			}
		})
	}
}

func TestDirectedFloodIsTrafficEfficient(t *testing.T) {
	// Directed flooding should cost ~1 message per node, not ~2d. Allow
	// slack for the half-way rule's antipodal overlaps.
	n := 256
	tn := build(t, n)
	tn.nw.ResetStats()
	tn.envs[0].Post(func() { tn.flooders[0].Multicast(&note{}) })
	tn.nw.Drain()
	msgs := tn.nw.Stats().Messages
	if msgs > int64(2*n) {
		t.Fatalf("flood used %d messages for %d nodes; directed flooding should be near n", msgs, n)
	}
	if msgs < int64(n-1) {
		t.Fatalf("flood used only %d messages; cannot have reached %d nodes", msgs, n)
	}
}

func TestSequentialMulticastsAllDelivered(t *testing.T) {
	tn := build(t, 16)
	for k := 0; k < 5; k++ {
		tn.envs[k].Post(func() { tn.flooders[0].Multicast(&note{N: 1}) })
	}
	tn.nw.Drain()
	for i, c := range tn.got {
		if c != 5 {
			t.Fatalf("node %d saw %d of 5 multicasts", i, c)
		}
	}
}

func TestUnsubscribeStopsDelivery(t *testing.T) {
	tn := build(t, 4)
	extra := 0
	var unsub func()
	tn.envs[1].Post(func() {
		unsub = tn.flooders[1].OnDeliver(func(env.Addr, env.Message) { extra++ })
	})
	tn.envs[0].Post(func() { tn.flooders[0].Multicast(&note{}) })
	tn.nw.Drain()
	if extra != 1 {
		t.Fatalf("second handler saw %d deliveries, want 1", extra)
	}
	tn.envs[1].Post(func() { unsub() })
	tn.envs[0].Post(func() { tn.flooders[0].Multicast(&note{}) })
	tn.nw.Drain()
	if extra != 1 {
		t.Fatalf("handler fired after unsubscribe (%d)", extra)
	}
}

func TestFloodSurvivesDeadNodes(t *testing.T) {
	tn := build(t, 64)
	for _, dead := range []int{3, 17, 40} {
		tn.nw.Kill(dead)
	}
	tn.envs[0].Post(func() { tn.flooders[0].Multicast(&note{}) })
	tn.nw.Drain()
	reached := 0
	for i, c := range tn.got {
		switch i {
		case 3, 17, 40:
			if c != 0 {
				t.Fatal("dead node got the multicast")
			}
		default:
			if c >= 1 {
				reached++
			}
		}
	}
	// Directed flooding loses the subtree behind a dead node; the
	// remaining coverage must still be substantial (soft state + query
	// refresh absorb the rest in practice).
	if reached < 50 {
		t.Fatalf("flood reached only %d/61 live nodes around failures", reached)
	}
}

func TestWireSizeIncludesPayloadAndHint(t *testing.T) {
	m := &FloodMsg{Origin: "sim:0", Seq: 1, Hint: []uint32{1, 2, 3, 4}, Payload: &note{}}
	// Tag, origin, seq, four one-byte hints behind their count, and the
	// untagged payload at its literal size.
	if want := 1 + (1 + 5) + 1 + (1 + 4) + 100; m.WireSize() != want {
		t.Fatalf("WireSize = %d, want %d", m.WireSize(), want)
	}
}
