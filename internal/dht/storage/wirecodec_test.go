package storage

import (
	"math/rand"
	"testing"
	"time"

	"pier/internal/env"
	"pier/internal/wire"
	"pier/internal/wire/wiretest"
)

// itemPayload stands in for the application payloads (tuples, filters,
// partial aggregates) that ride inside items; those codecs are tested in
// their owning packages.
type itemPayload struct{ S string }

func (p *itemPayload) WireSize() int { return wire.Size(p) }

func init() {
	wire.Register(202, func(c *wire.Codec, p *itemPayload) { c.String(&p.S) })
}

func randItem(r *rand.Rand) *Item {
	it := &Item{
		Namespace:  wiretest.Str(r, 12),
		ResourceID: wiretest.Str(r, 12),
		InstanceID: wiretest.Int64(r),
	}
	if r.Intn(4) > 0 {
		it.Expires = time.Unix(0, wiretest.Int64(r))
	}
	if r.Intn(4) > 0 {
		it.Payload = &itemPayload{S: wiretest.Str(r, 20)}
	}
	return it
}

func TestWireRoundTrip(t *testing.T) {
	wiretest.RoundTrip(t, 3, 300, 32, 32, "92ecd7730f6a70f1", []wiretest.Gen{
		{Name: "Item", Make: func(r *rand.Rand) env.Message { return randItem(r) }},
	})
}
