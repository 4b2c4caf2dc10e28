package chord

// Wire descriptions of the Chord control protocol (message types in
// messages.go).

import "pier/internal/wire"

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
	wire.Register(tagFindSuccMsg, func(c *wire.Codec, f *findSuccMsg) {
		c.Uvarint(&f.ID)
		c.Addr(&f.Origin)
		c.Uvarint(&f.Nonce)
		wire.Unsigned(c, &f.Hops)
	})

	wire.Register(tagFindSuccReply, func(c *wire.Codec, f *findSuccReply) {
		c.Uvarint(&f.Nonce)
		c.Addr(&f.Owner)
		wire.Unsigned(c, &f.Hops)
	})

	wire.Register(tagGetPredMsg, func(c *wire.Codec, g *getPredMsg) {
		c.Addr(&g.Origin)
		c.Uvarint(&g.Nonce)
	})

	wire.Register(tagGetPredReply, func(c *wire.Codec, g *getPredReply) {
		c.Uvarint(&g.Nonce)
		c.Bool(&g.HasPred)
		c.Addr(&g.PredAddr)
		c.Uvarint(&g.PredID)
		wire.Slice(c, &g.SuccAddrs, 1, (*wire.Codec).Addr)
	})

	wire.Register(tagNotifyMsg, func(c *wire.Codec, m *notifyMsg) { c.Uvarint(&m.ID) })

	wire.Register(tagPingMsg, func(c *wire.Codec, p *pingMsg) {
		c.Addr(&p.Origin)
		c.Uvarint(&p.Nonce)
	})

	wire.Register(tagPongMsg, func(c *wire.Codec, p *pongMsg) { c.Uvarint(&p.Nonce) })

	wire.Register(tagLeaveMsg, func(c *wire.Codec, l *leaveMsg) {
		c.Addr(&l.SuccAddr)
		c.Uvarint(&l.SuccID)
		c.Addr(&l.PredAddr)
		c.Uvarint(&l.PredID)
	})
}
