package provider

// Wire descriptions of the provider's put/get/transfer protocol (message
// types in messages.go). Items are Required everywhere: StoreLocal and
// transfer dereference them unconditionally.

import (
	"pier/internal/dht/storage"
	"pier/internal/wire"
)

const (
	tagPutMsg byte = 33 + iota
	tagGetMsg
	tagGetReply
	tagTransferMsg
	tagNSPayload
	tagPutThrottleMsg
)

// maxPutAttempt bounds the Attempt counter a frame may carry; anything
// larger is a hostile or corrupt frame (providers bounce at most a
// handful of times).
const maxPutAttempt = 64

func init() {
	wire.Register(tagPutMsg, func(c *wire.Codec, p *putMsg) {
		wire.Required(c, &p.Item)
		putAttempt(c, &p.Attempt)
	})

	wire.Register(tagPutThrottleMsg, func(c *wire.Codec, t *putThrottleMsg) {
		wire.Required(c, &t.Item)
		putAttempt(c, &t.Attempt)
		wire.Signed(c, &t.RetryAfter)
		if c.Decoding() && t.RetryAfter < 0 {
			c.Fail("negative throttle retry-after")
		}
	})

	wire.Register(tagGetMsg, func(c *wire.Codec, g *getMsg) {
		c.String(&g.NS)
		c.String(&g.RID)
		c.Uvarint(&g.Nonce)
		c.Addr(&g.Origin)
		c.Bool(&g.Forwarded)
	})

	wire.Register(tagGetReply, func(c *wire.Codec, g *getReply) {
		c.Uvarint(&g.Nonce)
		wire.Slice(c, &g.Items, 1, wire.Required[*storage.Item])
	})

	wire.Register(tagTransferMsg, func(c *wire.Codec, t *transferMsg) {
		wire.Slice(c, &t.Items, 1, wire.Required[*storage.Item])
	})

	wire.Register(tagNSPayload, func(c *wire.Codec, p *nsPayload) {
		c.String(&p.NS)
		wire.Required(c, &p.Payload)
	})
}

// putAttempt is the bounce counter shared by putMsg and putThrottleMsg;
// decoding bounds it.
func putAttempt(c *wire.Codec, a *uint8) {
	n := uint64(*a)
	c.Uvarint(&n)
	if !c.Decoding() {
		return
	}
	if n >= maxPutAttempt {
		c.Fail("put attempt counter out of range")
		n = 0
	}
	*a = uint8(n)
}
