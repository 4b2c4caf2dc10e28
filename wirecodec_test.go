package pier

import (
	"math/rand"
	"testing"

	"pier/internal/env"
	"pier/internal/sql"
	"pier/internal/wire/wiretest"
)

func TestSchemaPayloadWireRoundTrip(t *testing.T) {
	wiretest.RoundTrip(t, 19, 300, 90, 99, "9204963bb4782ea8", []wiretest.Gen{
		{Name: "schemaPayload", Make: func(r *rand.Rand) env.Message {
			s := &schemaPayload{Key: wiretest.Str(r, 10)}
			if n := r.Intn(6); n > 0 {
				s.Cols = make([]string, n)
				for i := range s.Cols {
					s.Cols[i] = wiretest.Str(r, 10)
				}
			}
			if n := r.Intn(3); n > 0 {
				s.Indexes = make([]sql.Index, n)
				for i := range s.Indexes {
					s.Indexes[i] = sql.Index{Name: wiretest.Str(r, 10), Col: wiretest.Str(r, 10)}
				}
			}
			return s
		}},
	})
}
