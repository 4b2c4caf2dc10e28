package provider

import (
	"time"

	"pier/internal/dht/storage"
	"pier/internal/env"
)

// putMsg carries one item directly to the owner found by a lookup.
// Attempt counts how many times this put has bounced off a throttling
// owner; past the provider's bounce bound the owner admits it.
type putMsg struct {
	Item    *storage.Item
	Attempt uint8
}

func (m *putMsg) WireSize() int { return env.HeaderSize + m.Item.WireSize() + 1 }

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

func (m *putThrottleMsg) WireSize() int {
	return env.HeaderSize + m.Item.WireSize() + 1 + 8
}

// getMsg asks the owner for all items under (NS, RID).
type getMsg struct {
	NS, RID   string
	Nonce     uint64
	Origin    env.Addr
	Forwarded bool
}

func (m *getMsg) WireSize() int {
	return env.HeaderSize + env.StringSize(m.NS) + env.StringSize(m.RID) + 8 + env.AddrSize + 1
}

// getReply answers a getMsg directly to the origin.
type getReply struct {
	Nonce uint64
	Items []*storage.Item
}

func (m *getReply) WireSize() int {
	n := env.HeaderSize + 8
	for _, it := range m.Items {
		n += it.WireSize()
	}
	return n
}

// transferMsg hands items to their new owner after a location-map
// change.
type transferMsg struct {
	Items []*storage.Item
}

func (m *transferMsg) WireSize() int {
	n := env.HeaderSize
	for _, it := range m.Items {
		n += it.WireSize()
	}
	return n
}

// nsPayload tags a multicast payload with its namespace.
type nsPayload struct {
	NS      string
	Payload env.Message
}

func (m *nsPayload) WireSize() int { return env.StringSize(m.NS) + m.Payload.WireSize() }
