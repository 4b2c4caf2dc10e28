package storage

// Wire description of Item, which rides inside the provider's put,
// get-reply, and transfer messages. The nested payload is any registered
// message type, coded recursively.

import "pier/internal/wire"

const tagItem byte = 32

func init() {
	wire.Register(tagItem, func(c *wire.Codec, it *Item) {
		c.String(&it.Namespace)
		c.String(&it.ResourceID)
		c.Varint(&it.InstanceID)
		c.Time(&it.Expires)
		c.Message(&it.Payload)
	})
}
