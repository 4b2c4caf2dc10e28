package multicast

import (
	"testing"

	"pier/internal/dht/chord"
	"pier/internal/env"
	"pier/internal/simnet"
	"pier/internal/topology"
)

// Chord has no geometric MulticastRouter refinement, so the flooder
// falls back to full neighbor flooding over successors + fingers; that
// graph is connected, so every node must still be reached exactly once
// at the delivery level.
func TestFloodOverChordReachesAll(t *testing.T) {
	n := 96
	nw := simnet.New(topology.NewFullMeshInfinite(), 3)
	routers := make([]*chord.Router, n)
	flooders := make([]*Flooder, n)
	envs := make([]*simnet.NodeEnv, n)
	got := make([]int, n)
	for i := 0; i < n; i++ {
		i := i
		e := nw.AddNode()
		r := chord.New(e, chord.Config{})
		f := New(e, r, false, func(env.Addr, env.Message) { got[i]++ })
		e.SetHandler(env.HandlerFunc(func(from env.Addr, m env.Message) {
			if r.HandleMessage(from, m) {
				return
			}
			f.HandleMessage(from, m)
		}))
		routers[i] = r
		flooders[i] = f
		envs[i] = e
	}
	chord.Bootstrap(routers)
	envs[7].Post(func() { flooders[7].Multicast(&note{N: 1}) })
	nw.Drain()
	for i, c := range got {
		if c != 1 {
			t.Fatalf("chord node %d delivered %d times, want 1", i, c)
		}
	}
	// Fingers give high fan-out: expect clearly more messages than the
	// directed CAN flood, but bounded by edges ~ n log n.
	msgs := nw.Stats().Messages
	if msgs < int64(n) {
		t.Fatalf("too few messages (%d) to have covered %d nodes", msgs, n)
	}
}
