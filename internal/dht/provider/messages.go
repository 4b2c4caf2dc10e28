package provider

import (
	"time"

	"pier/internal/dht/storage"
	"pier/internal/env"
	"pier/internal/wire"
)

// putMsg carries one item directly to the owner found by a lookup.
// Attempt counts how many times this put has bounced off a throttling
// owner; past the provider's bounce bound the owner admits it.
type putMsg struct {
	Item    *storage.Item
	Attempt uint8
}

func (m *putMsg) WireSize() int { return wire.Size(m) }

// maxRetryAfter caps the backoff an owner may impose on a publisher —
// a clamp against hostile or buggy frames, mirroring the decoder's
// Attempt bound.
const maxRetryAfter = 30 * time.Second

// putThrottleMsg is the owner's backpressure answer to a put into an
// over-quota namespace: the item is returned to the publisher with a
// retry deadline instead of being stored. Like the result channel's
// creditMsg it is loss-tolerant — a lost throttle just means the
// publisher's next renew tries again, and a lost retry means the item
// expires at the owner it never reached (soft state absorbs both).
type putThrottleMsg struct {
	Item       *storage.Item
	Attempt    uint8
	RetryAfter time.Duration
}

func (m *putThrottleMsg) WireSize() int { return wire.Size(m) }

// getMsg asks the owner for all items under (NS, RID).
type getMsg struct {
	NS, RID   string
	Nonce     uint64
	Origin    env.Addr
	Forwarded bool
}

func (m *getMsg) WireSize() int { return wire.Size(m) }

// getReply answers a getMsg directly to the origin.
type getReply struct {
	Nonce uint64
	Items []*storage.Item
}

func (m *getReply) WireSize() int { return wire.Size(m) }

// transferMsg hands items to their new owner after a location-map
// change.
type transferMsg struct {
	Items []*storage.Item
}

func (m *transferMsg) WireSize() int { return wire.Size(m) }

// nsPayload tags a multicast payload with its namespace.
type nsPayload struct {
	NS      string
	Payload env.Message
}

func (m *nsPayload) WireSize() int { return wire.Size(m) }
