package multicast

import (
	"fmt"
	"testing"

	"pier/internal/dht/can"
	"pier/internal/env"
	"pier/internal/simnet"
	"pier/internal/topology"
)

func TestDirectedFloodCoverageLarge(t *testing.T) {
	for _, n := range []int{512, 2048} {
		for seed := int64(1); seed <= 6; seed++ {
			nw := simnet.New(topology.NewFullMeshInfinite(), seed)
			routers := make([]*can.Router, n)
			envs := make([]*simnet.NodeEnv, n)
			got := make([]int, n)
			flooders := make([]*Flooder, n)
			for i := 0; i < n; i++ {
				i := i
				e := nw.AddNode()
				r := can.New(e, can.DefaultConfig())
				f := New(e, r, false, func(env.Addr, env.Message) { got[i]++ })
				e.SetHandler(env.HandlerFunc(func(from env.Addr, m env.Message) {
					if r.HandleMessage(from, m) {
						return
					}
					f.HandleMessage(from, m)
				}))
				routers[i] = r
				envs[i] = e
				flooders[i] = f
			}
			can.Bootstrap(routers, seed*7)
			envs[0].Post(func() { flooders[0].Multicast(&note{}) })
			nw.Drain()
			missed, dups := 0, 0
			for _, c := range got {
				if c == 0 {
					missed++
				}
				if c > 1 {
					dups++
				}
			}
			msgs := nw.Stats().Messages
			fmt.Printf("n=%d seed=%d: missed=%d dupdeliver=%d msgs=%d\n", n, seed, missed, dups, msgs)
			if missed > 0 {
				t.Errorf("n=%d seed=%d: %d nodes missed", n, seed, missed)
			}
		}
	}
}
