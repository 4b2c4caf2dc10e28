// Package wiretest holds the shared property-test harness for wire
// codecs. Each message package owns unexported message types, so it runs
// the same battery over its own generators: round-trips must be lossless
// and the encoded size must obey the documented relation to WireSize().
package wiretest

import (
	"math/rand"
	"reflect"
	"testing"

	"pier/internal/env"
	"pier/internal/wire"
)

// Gen builds one random message instance. To keep the size relation
// assertable (see package wire's doc), generators must draw env.Addr
// values of at most env.AddrSize-1 bytes and integer values that fit in
// int32; dedicated unit tests cover the extremes without the size bound.
type Gen struct {
	Name string
	Make func(r *rand.Rand) env.Message
}

// RoundTrip asserts, for n random instances per generator:
//
//	decode(encode(m)) deep-equals m, and
//	len(encode(m)) <= m.WireSize() + env.HeaderSize.
func RoundTrip(t *testing.T, seed int64, n int, gens []Gen) {
	t.Helper()
	for _, g := range gens {
		t.Run(g.Name, func(t *testing.T) {
			r := rand.New(rand.NewSource(seed))
			for i := 0; i < n; i++ {
				m := g.Make(r)
				b, err := wire.Marshal(m)
				if err != nil {
					t.Fatalf("#%d: Marshal(%#v): %v", i, m, err)
				}
				got, err := wire.Unmarshal(b)
				if err != nil {
					t.Fatalf("#%d: Unmarshal: %v", i, err)
				}
				if !reflect.DeepEqual(got, m) {
					t.Fatalf("#%d: binary round trip\n got %#v\nwant %#v", i, got, m)
				}
				if max := m.WireSize() + env.HeaderSize; len(b) > max {
					t.Fatalf("#%d: encoded %d bytes > WireSize %d + HeaderSize %d (%#v)",
						i, len(b), m.WireSize(), env.HeaderSize, m)
				}
			}
		})
	}
}

// Letters for random identifiers.
const alphabet = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"

// Str draws a random identifier of length [0, max).
func Str(r *rand.Rand, max int) string {
	n := r.Intn(max)
	b := make([]byte, n)
	for i := range b {
		b[i] = alphabet[r.Intn(len(alphabet))]
	}
	return string(b)
}

// ShortAddr draws an env.Addr that encodes within env.AddrSize bytes
// (uvarint length prefix + at most AddrSize-1 characters).
func ShortAddr(r *rand.Rand) env.Addr {
	return env.Addr(Str(r, env.AddrSize))
}

// SmallInt draws an int64 that fits in int32.
func SmallInt(r *rand.Rand) int64 { return int64(int32(r.Uint32())) }

// Value draws a random core-style scalar: nil, bool, int64 (int32
// range), float64, or string.
func Value(r *rand.Rand) any {
	switch r.Intn(5) {
	case 0:
		return nil
	case 1:
		return r.Intn(2) == 0
	case 2:
		return SmallInt(r)
	case 3:
		return r.NormFloat64()
	default:
		return Str(r, 12)
	}
}
