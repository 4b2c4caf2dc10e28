package provider

// Binary wire codecs for the provider's put/get/transfer protocol
// (message types in messages.go).

import (
	"pier/internal/dht/storage"
	"pier/internal/env"
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
	wire.Register(tagPutMsg, &putMsg{},
		func(e *wire.Encoder, m env.Message) {
			p := m.(*putMsg)
			e.Message(p.Item)
			e.Uvarint(uint64(p.Attempt))
		},
		func(d *wire.Decoder) env.Message {
			return &putMsg{Item: requiredItem(d), Attempt: putAttempt(d)}
		})

	wire.Register(tagPutThrottleMsg, &putThrottleMsg{},
		func(e *wire.Encoder, m env.Message) {
			t := m.(*putThrottleMsg)
			e.Message(t.Item)
			e.Uvarint(uint64(t.Attempt))
			e.Duration(t.RetryAfter)
		},
		func(d *wire.Decoder) env.Message {
			t := &putThrottleMsg{
				Item:       requiredItem(d),
				Attempt:    putAttempt(d),
				RetryAfter: d.Duration(),
			}
			if t.RetryAfter < 0 && d.Err() == nil {
				d.Fail("negative throttle retry-after")
			}
			return t
		})

	wire.Register(tagGetMsg, &getMsg{},
		func(e *wire.Encoder, m env.Message) {
			g := m.(*getMsg)
			e.String(g.NS)
			e.String(g.RID)
			e.Uvarint(g.Nonce)
			e.Addr(g.Origin)
			e.Bool(g.Forwarded)
		},
		func(d *wire.Decoder) env.Message {
			return &getMsg{
				NS:        d.String(),
				RID:       d.String(),
				Nonce:     d.Uvarint(),
				Origin:    d.Addr(),
				Forwarded: d.Bool(),
			}
		})

	wire.Register(tagGetReply, &getReply{},
		func(e *wire.Encoder, m env.Message) {
			g := m.(*getReply)
			e.Uvarint(g.Nonce)
			e.Len(len(g.Items))
			for _, it := range g.Items {
				e.Message(it)
			}
		},
		func(d *wire.Decoder) env.Message {
			g := &getReply{Nonce: d.Uvarint()}
			if n := d.Len(); n > 0 {
				g.Items = make([]*storage.Item, 0, wire.SliceCap(n))
				for i := 0; i < n && d.Err() == nil; i++ {
					g.Items = append(g.Items, requiredItem(d))
				}
			}
			return g
		})

	wire.Register(tagTransferMsg, &transferMsg{},
		func(e *wire.Encoder, m env.Message) {
			t := m.(*transferMsg)
			e.Len(len(t.Items))
			for _, it := range t.Items {
				e.Message(it)
			}
		},
		func(d *wire.Decoder) env.Message {
			t := &transferMsg{}
			if n := d.Len(); n > 0 {
				t.Items = make([]*storage.Item, 0, wire.SliceCap(n))
				for i := 0; i < n && d.Err() == nil; i++ {
					t.Items = append(t.Items, requiredItem(d))
				}
			}
			return t
		})

	wire.Register(tagNSPayload, &nsPayload{},
		func(e *wire.Encoder, m env.Message) {
			p := m.(*nsPayload)
			e.String(p.NS)
			e.Message(p.Payload)
		},
		func(d *wire.Decoder) env.Message {
			p := &nsPayload{NS: d.String(), Payload: d.Message()}
			if p.Payload == nil && d.Err() == nil {
				d.Fail("missing required multicast payload")
			}
			return p
		})
}

// putAttempt decodes and bounds the bounce counter shared by putMsg
// and putThrottleMsg.
func putAttempt(d *wire.Decoder) uint8 {
	n := d.Uvarint()
	if n >= maxPutAttempt {
		d.Fail("put attempt counter out of range")
		return 0
	}
	return uint8(n)
}

// requiredItem rejects frames whose handlers would nil-deref a missing
// item (StoreLocal and transfer both dereference unconditionally).
func requiredItem(d *wire.Decoder) *storage.Item {
	it := storage.ItemField(d)
	if it == nil && d.Err() == nil {
		d.Fail("missing required storage item")
	}
	return it
}
