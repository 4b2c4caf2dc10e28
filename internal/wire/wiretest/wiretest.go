// Package wiretest holds the shared property-test harness for wire
// codecs. Each message package owns unexported message types, so it runs
// the same battery over its own generators: round-trips must be lossless,
// WireSize() must equal the encoded length plus the declared pad, every
// tag the package registers must be generated, and the bytes must not
// change.
package wiretest

import (
	"crypto/sha256"
	"encoding/hex"
	"math/rand"
	"reflect"
	"testing"

	"pier/internal/env"
	"pier/internal/wire"
)

// Gen builds one random message instance. Generators draw from the full
// range of every field (Addr, Int64, Uint64): the size relation is an
// equality, so no value needs avoiding.
type Gen struct {
	Name string
	Make func(r *rand.Rand) env.Message
}

// RoundTrip asserts, for n random instances per generator:
//
//	decode(encode(m)) deep-equals m, and
//	m.WireSize() == len(encode(m)) + wire.PadSize(m);
//
// and, over the whole corpus, that every tag registered in [lo, hi] (the
// calling package's share of the tag table) was the outermost tag of
// some generated message, and that the corpus's encodings hash to
// golden — the wire format is frozen (spill logs outlive a binary), so
// a changed hash is a format break, not a number to re-record.
func RoundTrip(t *testing.T, seed int64, n int, lo, hi byte, golden string, gens []Gen) {
	t.Helper()
	corpus := sha256.New()
	var seen [256]bool
	ran := 0
	for _, g := range gens {
		t.Run(g.Name, func(t *testing.T) {
			ran++
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
				if size, want := m.WireSize(), len(b)+wire.PadSize(m); size != want {
					t.Fatalf("#%d: WireSize() = %d, want %d encoded + %d pad bytes (%#v)",
						i, size, len(b), wire.PadSize(m), m)
				}
				seen[b[0]] = true
				corpus.Write(b)
			}
		})
	}
	if ran < len(gens) || t.Failed() {
		return // a -run filter picked some generators: the corpus is partial
	}
	for _, tag := range wire.Registered() {
		if tag >= lo && tag <= hi && !seen[tag] {
			t.Errorf("registered tag %d is produced by no generator", tag)
		}
	}
	if got := hex.EncodeToString(corpus.Sum(nil)[:8]); got != golden {
		t.Errorf("corpus encodings hash to %s, want %s: the wire format changed", got, golden)
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

// Addr draws a node address of up to 47 bytes — longer than any
// host:port, so length prefixes and interning see every realistic size.
func Addr(r *rand.Rand) env.Addr { return env.Addr(Str(r, 48)) }

// Uint64 draws from the full uint64 range with every bit width equally
// likely, so varints of every encoded length occur.
func Uint64(r *rand.Rand) uint64 { return r.Uint64() >> r.Intn(64) }

// Int64 draws from the full int64 range, both signs, with every bit
// width equally likely.
func Int64(r *rand.Rand) int64 { return int64(r.Uint64()) >> r.Intn(64) }

// Value draws a random core-style scalar: nil, bool, int64, float64, or
// string.
func Value(r *rand.Rand) any {
	switch r.Intn(5) {
	case 0:
		return nil
	case 1:
		return r.Intn(2) == 0
	case 2:
		return Int64(r)
	case 3:
		return r.NormFloat64()
	default:
		return Str(r, 12)
	}
}
