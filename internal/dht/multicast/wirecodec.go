package multicast

// Wire description of the flood envelope; the payload is any registered
// message type, coded recursively.

import "pier/internal/wire"

const tagFloodMsg byte = 80

func init() {
	wire.Register(tagFloodMsg, func(c *wire.Codec, f *FloodMsg) {
		c.Addr(&f.Origin)
		c.Uvarint(&f.Seq)
		wire.Slice(c, &f.Hint, 1, wire.Unsigned[uint32])
		// Every flood carries a payload; delivery dereferences it.
		wire.Required(c, &f.Payload)
	})
}
