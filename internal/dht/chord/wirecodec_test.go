package chord

import (
	"math/rand"
	"testing"

	"pier/internal/env"
	"pier/internal/wire/wiretest"
)

func TestWireRoundTrip(t *testing.T) {
	wiretest.RoundTrip(t, 13, 300, 64, 79, "9e471eb241682dd5", []wiretest.Gen{
		{Name: "findSuccMsg", Make: func(r *rand.Rand) env.Message {
			return &findSuccMsg{
				ID:     wiretest.Uint64(r),
				Origin: wiretest.Addr(r),
				Nonce:  wiretest.Uint64(r),
				Hops:   uint16(r.Intn(1 << 16)),
			}
		}},
		{Name: "findSuccReply", Make: func(r *rand.Rand) env.Message {
			return &findSuccReply{
				Nonce: wiretest.Uint64(r),
				Owner: wiretest.Addr(r),
				Hops:  uint16(r.Intn(1 << 16)),
			}
		}},
		{Name: "getPredMsg", Make: func(r *rand.Rand) env.Message {
			return &getPredMsg{Origin: wiretest.Addr(r), Nonce: wiretest.Uint64(r)}
		}},
		{Name: "getPredReply", Make: func(r *rand.Rand) env.Message {
			g := &getPredReply{
				Nonce:   wiretest.Uint64(r),
				HasPred: r.Intn(2) == 0,
				PredID:  wiretest.Uint64(r),
			}
			if g.HasPred {
				g.PredAddr = wiretest.Addr(r)
			}
			if n := r.Intn(5); n > 0 {
				g.SuccAddrs = make([]env.Addr, n)
				for i := range g.SuccAddrs {
					g.SuccAddrs[i] = wiretest.Addr(r)
				}
			}
			return g
		}},
		{Name: "notifyMsg", Make: func(r *rand.Rand) env.Message {
			return &notifyMsg{ID: wiretest.Uint64(r)}
		}},
		{Name: "pingMsg", Make: func(r *rand.Rand) env.Message {
			return &pingMsg{Origin: wiretest.Addr(r), Nonce: wiretest.Uint64(r)}
		}},
		{Name: "pongMsg", Make: func(r *rand.Rand) env.Message {
			return &pongMsg{Nonce: wiretest.Uint64(r)}
		}},
		{Name: "leaveMsg", Make: func(r *rand.Rand) env.Message {
			return &leaveMsg{
				SuccAddr: wiretest.Addr(r),
				SuccID:   wiretest.Uint64(r),
				PredAddr: wiretest.Addr(r),
				PredID:   wiretest.Uint64(r),
			}
		}},
	})
}
