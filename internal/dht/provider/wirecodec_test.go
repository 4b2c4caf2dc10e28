package provider

import (
	"math/rand"
	"testing"
	"time"

	"pier/internal/dht/storage"
	"pier/internal/env"
	"pier/internal/wire"
	"pier/internal/wire/wiretest"
)

// provPayload stands in for application payloads; their codecs are
// tested in their owning packages.
type provPayload struct{ N int64 }

func (p *provPayload) WireSize() int { return wire.Size(p) }

func init() {
	wire.Register(203, func(c *wire.Codec, p *provPayload) { c.Varint(&p.N) })
}

func randItem(r *rand.Rand) *storage.Item {
	it := &storage.Item{
		Namespace:  wiretest.Str(r, 10),
		ResourceID: wiretest.Str(r, 10),
		InstanceID: wiretest.Int64(r),
		Payload:    &provPayload{N: wiretest.Int64(r)},
	}
	if r.Intn(2) == 0 {
		it.Expires = time.Unix(0, wiretest.Int64(r))
	}
	return it
}

func randItems(r *rand.Rand) []*storage.Item {
	n := r.Intn(5)
	if n == 0 {
		return nil
	}
	items := make([]*storage.Item, n)
	for i := range items {
		items[i] = randItem(r)
	}
	return items
}

// TestNilRequiredFieldsRejected: a crafted frame carrying tag 0 where a
// handler-dereferenced field belongs must fail decode (the handler runs
// on the event loop with no recover — a nil would kill the node).
func TestNilRequiredFieldsRejected(t *testing.T) {
	cases := map[string][]byte{
		"putMsg nil item":       {tagPutMsg, 0},
		"transferMsg nil item":  {tagTransferMsg, 1, 0},
		"getReply nil item":     {tagGetReply, 9, 1, 0},
		"nsPayload nil payload": {tagNSPayload, 2, 'n', 's', 0},
	}
	for name, b := range cases {
		if _, err := wire.Unmarshal(b); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestPutMsgWireSizeAllocs: the simulator sizes every put it sends.
func TestPutMsgWireSizeAllocs(t *testing.T) {
	m := &putMsg{Item: randItem(rand.New(rand.NewSource(1)))}
	if allocs := testing.AllocsPerRun(200, func() { m.WireSize() }); allocs != 0 {
		t.Fatalf("WireSize of a putMsg: %.1f allocs, want 0", allocs)
	}
}

// TestWireRoundTrip covers the provider's tags below putThrottleMsg,
// which TestPutThrottleWireRoundTrip owns.
func TestWireRoundTrip(t *testing.T) {
	wiretest.RoundTrip(t, 5, 300, tagPutMsg, tagPutThrottleMsg-1, "f48a998d79390538", []wiretest.Gen{
		{Name: "putMsg", Make: func(r *rand.Rand) env.Message {
			return &putMsg{Item: randItem(r)}
		}},
		{Name: "getMsg", Make: func(r *rand.Rand) env.Message {
			return &getMsg{
				NS:        wiretest.Str(r, 10),
				RID:       wiretest.Str(r, 10),
				Nonce:     wiretest.Uint64(r),
				Origin:    wiretest.Addr(r),
				Forwarded: r.Intn(2) == 0,
			}
		}},
		{Name: "getReply", Make: func(r *rand.Rand) env.Message {
			return &getReply{Nonce: wiretest.Uint64(r), Items: randItems(r)}
		}},
		{Name: "transferMsg", Make: func(r *rand.Rand) env.Message {
			return &transferMsg{Items: randItems(r)}
		}},
		{Name: "nsPayload", Make: func(r *rand.Rand) env.Message {
			return &nsPayload{NS: wiretest.Str(r, 10), Payload: &provPayload{N: wiretest.Int64(r)}}
		}},
	})
}
