package bloom

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"pier/internal/wire"
)

func TestNoFalseNegativesProperty(t *testing.T) {
	check := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		f := NewForCapacity(int(n)+1, 0.01)
		keys := make([]string, int(n)+1)
		for i := range keys {
			keys[i] = fmt.Sprint("k", rng.Int63())
			f.Add(keys[i])
		}
		for _, k := range keys {
			if !f.Test(k) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestFalsePositiveRateNearTarget(t *testing.T) {
	const n = 5000
	f := NewForCapacity(n, 0.01)
	for i := 0; i < n; i++ {
		f.Add(fmt.Sprint("member", i))
	}
	fp := 0
	const probes = 20000
	for i := 0; i < probes; i++ {
		if f.Test(fmt.Sprint("nonmember", i)) {
			fp++
		}
	}
	rate := float64(fp) / probes
	if rate > 0.03 {
		t.Fatalf("false positive rate %.4f, want <= 0.03", rate)
	}
}

func TestUnionContainsBothSides(t *testing.T) {
	a, b := New(1<<12, 4), New(1<<12, 4)
	a.Add("only-a")
	b.Add("only-b")
	if err := a.Union(b); err != nil {
		t.Fatal(err)
	}
	if !a.Test("only-a") || !a.Test("only-b") {
		t.Fatal("union lost members")
	}
}

func TestUnionGeometryMismatch(t *testing.T) {
	a, b := New(1<<12, 4), New(1<<13, 4)
	if err := a.Union(b); err == nil {
		t.Fatal("mismatched sizes must error")
	}
	c := New(1<<12, 3)
	if err := a.Union(c); err == nil {
		t.Fatal("mismatched K must error")
	}
}

func TestUnionEqualsBulkAddProperty(t *testing.T) {
	// Property: adding keys into two filters and OR-ing equals adding
	// all keys into one filter — the §4.2 collector invariant.
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		one, two, merged := New(1<<10, 3), New(1<<10, 3), New(1<<10, 3)
		for i := 0; i < 50; i++ {
			k := fmt.Sprint(rng.Int63())
			merged.Add(k)
			if i%2 == 0 {
				one.Add(k)
			} else {
				two.Add(k)
			}
		}
		if err := one.Union(two); err != nil {
			return false
		}
		for i := range one.Bits {
			if one.Bits[i] != merged.Bits[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestCloneIndependent(t *testing.T) {
	a := New(1<<10, 2)
	a.Add("x")
	b := a.Clone()
	b.Add("y")
	if a.Test("y") && !b.Test("y") {
		t.Fatal("clone aliases original")
	}
	if !b.Test("x") {
		t.Fatal("clone lost members")
	}
}

func TestEmptyFilterRejectsEverything(t *testing.T) {
	f := New(1<<10, 4)
	for i := 0; i < 100; i++ {
		if f.Test(fmt.Sprint("k", i)) {
			t.Fatal("empty filter accepted a key")
		}
	}
	if f.FillRatio() != 0 {
		t.Fatal("empty filter fill ratio != 0")
	}
}

func TestCapacitySizing(t *testing.T) {
	f := NewForCapacity(1000, 0.01)
	if len(f.Bits)*64 < 9000 {
		t.Fatalf("filter too small for capacity: %d bits", len(f.Bits)*64)
	}
	if f.K < 3 || f.K > 10 {
		t.Fatalf("k = %d out of expected range", f.K)
	}
	// Empty, the filter travels sparse: tag, K, the two-byte word count
	// (with the form bit) and a zero count of set bits.
	if f.WireSize() != 5 {
		t.Fatalf("empty filter wire size %d, want 5", f.WireSize())
	}
	// Full, it travels dense: tag, K, the two-byte word count, then
	// fixed 8-byte words.
	f.Saturate()
	if f.WireSize() != 4+len(f.Bits)*8 {
		t.Fatal("wire size mismatch")
	}
}

// TestWireFormIsTheSmaller: a filter travels in whichever form is
// smaller, both forms round-trip, and the size the simulator charges is
// the encoding's length.
func TestWireFormIsTheSmaller(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, keys := range []int{0, 1, 10, 100, 1000, 20000} {
		f := New(1<<16, 4)
		for i := 0; i < keys; i++ {
			f.Add(fmt.Sprint(rng.Int63()))
		}
		b, err := wire.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		if len(b) != f.WireSize() {
			t.Fatalf("%d keys: WireSize %d, encoding %d bytes", keys, f.WireSize(), len(b))
		}
		dense := 4 + 8*len(f.Bits)
		if sparse := b[2]&1 == 1; sparse != (len(b) < dense) || len(b) > dense {
			t.Fatalf("%d keys: %d bytes (sparse %v), dense form %d bytes", keys, len(b), sparse, dense)
		}
		got, err := wire.Unmarshal(b)
		if err != nil {
			t.Fatalf("%d keys: %v", keys, err)
		}
		if !reflect.DeepEqual(got, f) {
			t.Fatalf("%d keys: round trip changed the filter", keys)
		}
	}
}

// sparseFrame lays out a sparse filter frame by hand: tag, K=1, the
// word count with the form bit, the count of set bits, and the gaps.
func sparseFrame(words, count uint64, gaps ...uint64) []byte {
	b := []byte{tagFilter, 2}
	b = binary.AppendUvarint(b, words<<1|1)
	b = binary.AppendUvarint(b, count)
	for _, g := range gaps {
		b = binary.AppendUvarint(b, g)
	}
	return b
}

func TestSparseFrameDecodes(t *testing.T) {
	m, err := wire.Unmarshal(sparseFrame(2, 2, 3, 123))
	if err != nil {
		t.Fatal(err)
	}
	if f := m.(*Filter); f.Bits[0] != 1<<3 || f.Bits[1] != 1<<63 {
		t.Fatalf("decoded bits %x", f.Bits)
	}
}

func TestSparseRejectsWordCountPastAFrame(t *testing.T) {
	if _, err := wire.Unmarshal(sparseFrame(maxWords+1, 0)); err == nil {
		t.Fatal("a sparse filter larger than any dense frame was accepted")
	}
}

func TestSparseRejectsBitOutOfRange(t *testing.T) {
	for _, gaps := range [][]uint64{{64}, {63, 0}, {1 << 63, 1 << 63}} {
		if _, err := wire.Unmarshal(sparseFrame(1, uint64(len(gaps)), gaps...)); err == nil {
			t.Fatalf("gaps %v past a one-word filter accepted", gaps)
		}
	}
}

func TestSparseRejectsCountPastInput(t *testing.T) {
	if _, err := wire.Unmarshal(sparseFrame(1, 3, 0, 0)); err == nil {
		t.Fatal("a count of set bits larger than the remaining bytes was accepted")
	}
}

func TestDegenerateParams(t *testing.T) {
	f := New(0, 0)
	f.Add("a")
	if !f.Test("a") {
		t.Fatal("degenerate filter must still work")
	}
	g := NewForCapacity(0, 2)
	g.Add("b")
	if !g.Test("b") {
		t.Fatal("zero-capacity filter must still work")
	}
}

func TestSaturateAcceptsEverything(t *testing.T) {
	f := New(1<<10, 4)
	f.Saturate()
	for _, k := range []string{"", "a", "zz", "never-added-key"} {
		if !f.Test(k) {
			t.Fatalf("saturated filter rejected %q", k)
		}
	}
	if r := f.FillRatio(); r != 1 {
		t.Fatalf("saturated fill ratio %v, want 1", r)
	}
}
