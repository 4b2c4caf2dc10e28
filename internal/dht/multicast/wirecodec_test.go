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

func (p *floodPayload) WireSize() int { return wire.Size(p) }

func init() {
	wire.Register(204, func(c *wire.Codec, p *floodPayload) { c.String(&p.S) })
}

func TestWireRoundTrip(t *testing.T) {
	wiretest.RoundTrip(t, 17, 300, 80, 89, "f188a3e977d12c5c", []wiretest.Gen{
		{Name: "FloodMsg", Make: func(r *rand.Rand) env.Message {
			f := &FloodMsg{
				Origin:  wiretest.Addr(r),
				Seq:     wiretest.Uint64(r),
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
