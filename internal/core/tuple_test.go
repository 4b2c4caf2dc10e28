package core

import (
	"testing"
	"testing/quick"
)

func TestConcatKeepsOrderAndPad(t *testing.T) {
	a := &Tuple{Rel: "R", Vals: []Value{int64(1), int64(2)}, Pad: 100}
	b := &Tuple{Rel: "S", Vals: []Value{"x"}, Pad: 10}
	c := Concat(a, b)
	if len(c.Vals) != 3 || c.Vals[0] != int64(1) || c.Vals[2] != "x" {
		t.Fatalf("concat vals = %v", c.Vals)
	}
	if c.Pad != 110 {
		t.Fatalf("concat pad = %d, want 110", c.Pad)
	}
	if c.Rel != "R+S" {
		t.Fatalf("concat rel = %q", c.Rel)
	}
}

func TestProjectKeepsPad(t *testing.T) {
	a := &Tuple{Rel: "R", Vals: []Value{int64(1), int64(2), int64(3)}, Pad: 964}
	p := a.Project([]int{2, 0})
	if len(p.Vals) != 2 || p.Vals[0] != int64(3) || p.Vals[1] != int64(1) {
		t.Fatalf("project vals = %v", p.Vals)
	}
	if p.Pad != 964 {
		t.Fatal("projection must carry the pad payload (Figure 4 depends on it)")
	}
	if a.Project(nil) != a {
		t.Fatal("nil projection should be identity")
	}
}

func TestWireSizeGrowsWithPad(t *testing.T) {
	small := &Tuple{Rel: "R", Vals: []Value{int64(1)}}
	big := &Tuple{Rel: "R", Vals: []Value{int64(1)}, Pad: 964}
	// The 964 pad bytes, plus one: declaring them takes a two-byte varint.
	if big.WireSize()-small.WireSize() != 964+1 {
		t.Fatalf("pad not reflected in wire size: %d vs %d", big.WireSize(), small.WireSize())
	}
}

func TestJoinKeyString(t *testing.T) {
	tu := &Tuple{Vals: []Value{int64(7), "abc", float64(1.5)}}
	if got := JoinKeyString(tu, []int{0}); got != "7" {
		t.Fatalf("single col key = %q", got)
	}
	if got := JoinKeyString(tu, []int{0, 1}); got != "7\x1fabc" {
		t.Fatalf("multi col key = %q", got)
	}
	if got := JoinKeyString(tu, nil); got != "" {
		t.Fatalf("empty col key = %q (global group)", got)
	}
}

func TestValueStringCanonical(t *testing.T) {
	if ValueString(int64(42)) != "42" || ValueString("s") != "s" || ValueString(true) != "true" {
		t.Fatal("canonical strings wrong")
	}
	if ValueString(float64(2)) != "2" {
		t.Fatalf("float string = %q", ValueString(float64(2)))
	}
}

func TestCloneIndependence(t *testing.T) {
	a := &Tuple{Rel: "R", Vals: []Value{int64(1)}, Pad: 5}
	b := a.Clone()
	b.Vals[0] = int64(9)
	if a.Vals[0] != int64(1) {
		t.Fatal("clone shares storage")
	}
}

func TestValueSizePositiveProperty(t *testing.T) {
	check := func(i int64, f float64, s string, b bool) bool {
		for _, v := range []Value{i, f, s, b, nil} {
			// A value costs at least its kind byte beyond Const's tag.
			if (&Const{V: v}).WireSize() < 2 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}
