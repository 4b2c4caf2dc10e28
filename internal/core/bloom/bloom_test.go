package bloom

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
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
	// Tag, K, a two-byte word count, then fixed 8-byte words.
	if f.WireSize() != 4+len(f.Bits)*8 {
		t.Fatal("wire size mismatch")
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
