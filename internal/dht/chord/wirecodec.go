package chord

// Binary wire codecs for the Chord control protocol (message types in
// messages.go).

import (
	"pier/internal/env"
	"pier/internal/wire"
)

const (
	tagFindSuccMsg byte = 64 + iota
	tagFindSuccReply
	tagGetPredMsg
	tagGetPredReply
	tagNotifyMsg
	tagPingMsg
	tagPongMsg
	tagLeaveMsg
)

func init() {
	wire.Register(tagFindSuccMsg, &findSuccMsg{},
		func(e *wire.Encoder, m env.Message) {
			f := m.(*findSuccMsg)
			e.Uvarint(f.ID)
			e.Addr(f.Origin)
			e.Uvarint(f.Nonce)
			e.Uvarint(uint64(f.Hops))
		},
		func(d *wire.Decoder) env.Message {
			return &findSuccMsg{
				ID:     d.Uvarint(),
				Origin: d.Addr(),
				Nonce:  d.Uvarint(),
				Hops:   uint16(d.Uvarint()),
			}
		})

	wire.Register(tagFindSuccReply, &findSuccReply{},
		func(e *wire.Encoder, m env.Message) {
			f := m.(*findSuccReply)
			e.Uvarint(f.Nonce)
			e.Addr(f.Owner)
			e.Uvarint(uint64(f.Hops))
		},
		func(d *wire.Decoder) env.Message {
			return &findSuccReply{
				Nonce: d.Uvarint(),
				Owner: d.Addr(),
				Hops:  uint16(d.Uvarint()),
			}
		})

	wire.Register(tagGetPredMsg, &getPredMsg{},
		func(e *wire.Encoder, m env.Message) {
			g := m.(*getPredMsg)
			e.Addr(g.Origin)
			e.Uvarint(g.Nonce)
		},
		func(d *wire.Decoder) env.Message {
			return &getPredMsg{Origin: d.Addr(), Nonce: d.Uvarint()}
		})

	wire.Register(tagGetPredReply, &getPredReply{},
		func(e *wire.Encoder, m env.Message) {
			g := m.(*getPredReply)
			e.Uvarint(g.Nonce)
			e.Bool(g.HasPred)
			e.Addr(g.PredAddr)
			e.Uvarint(g.PredID)
			e.Len(len(g.SuccAddrs))
			for _, a := range g.SuccAddrs {
				e.Addr(a)
			}
		},
		func(d *wire.Decoder) env.Message {
			g := &getPredReply{
				Nonce:    d.Uvarint(),
				HasPred:  d.Bool(),
				PredAddr: d.Addr(),
				PredID:   d.Uvarint(),
			}
			if n := d.Len(); n > 0 {
				g.SuccAddrs = make([]env.Addr, 0, wire.SliceCap(n))
				for i := 0; i < n && d.Err() == nil; i++ {
					g.SuccAddrs = append(g.SuccAddrs, d.Addr())
				}
			}
			return g
		})

	wire.Register(tagNotifyMsg, &notifyMsg{},
		func(e *wire.Encoder, m env.Message) { e.Uvarint(m.(*notifyMsg).ID) },
		func(d *wire.Decoder) env.Message { return &notifyMsg{ID: d.Uvarint()} })

	wire.Register(tagPingMsg, &pingMsg{},
		func(e *wire.Encoder, m env.Message) {
			p := m.(*pingMsg)
			e.Addr(p.Origin)
			e.Uvarint(p.Nonce)
		},
		func(d *wire.Decoder) env.Message {
			return &pingMsg{Origin: d.Addr(), Nonce: d.Uvarint()}
		})

	wire.Register(tagPongMsg, &pongMsg{},
		func(e *wire.Encoder, m env.Message) { e.Uvarint(m.(*pongMsg).Nonce) },
		func(d *wire.Decoder) env.Message { return &pongMsg{Nonce: d.Uvarint()} })

	wire.Register(tagLeaveMsg, &leaveMsg{},
		func(e *wire.Encoder, m env.Message) {
			l := m.(*leaveMsg)
			e.Addr(l.SuccAddr)
			e.Uvarint(l.SuccID)
			e.Addr(l.PredAddr)
			e.Uvarint(l.PredID)
		},
		func(d *wire.Decoder) env.Message {
			return &leaveMsg{
				SuccAddr: d.Addr(),
				SuccID:   d.Uvarint(),
				PredAddr: d.Addr(),
				PredID:   d.Uvarint(),
			}
		})
}
