package multicast

import (
	"math/rand"
	"testing"

	"pier/internal/env"
	"pier/internal/wire"
	"pier/internal/wire/wiretest"
)

// floodPayload stands in for the query/filter payloads multicast
// carries; their codecs are tested in their owning packages.
type floodPayload struct{ S string }

func (p *floodPayload) WireSize() int { return env.StringSize(p.S) }

func init() {
	wire.Register(204, &floodPayload{},
		func(e *wire.Encoder, m env.Message) { e.String(m.(*floodPayload).S) },
		func(d *wire.Decoder) env.Message { return &floodPayload{S: d.String()} })
}

func TestWireRoundTrip(t *testing.T) {
	wiretest.RoundTrip(t, 17, 300, []wiretest.Gen{
		{Name: "FloodMsg", Make: func(r *rand.Rand) env.Message {
			f := &FloodMsg{
				Origin:  wiretest.ShortAddr(r),
				Seq:     r.Uint64(),
				Payload: &floodPayload{S: wiretest.Str(r, 24)},
			}
			if n := r.Intn(4); n > 0 {
				f.Hint = make([]uint32, n)
				for i := range f.Hint {
					f.Hint[i] = r.Uint32()
				}
			}
			return f
		}},
	})
}
