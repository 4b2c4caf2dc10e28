package dht

import (
	"slices"
	"testing"
)

// TestPointGolden pins Point's coordinates for a few keys: the CAN
// zone every key maps to, and so every item's owner, depends on them.
func TestPointGolden(t *testing.T) {
	cases := []struct {
		k    Key
		want []uint32
	}{
		{KeyOf("S", "1"), []uint32{0x226f27e1, 0x6a2a8f5d, 0x62232c91, 0x419dbaa1}},
		{KeyOf("q1f", "bkt7"), []uint32{0xda831726, 0xea9995f1, 0x4a3128c7, 0x0b4f8f49}},
		{KeyOf("", ""), []uint32{0x219c9e1c, 0x431a4271, 0xe049849c, 0x2e0b7a5e}},
	}
	for _, c := range cases {
		for _, d := range []int{2, 4} {
			if got := c.k.Point(d); !slices.Equal(got, c.want[:d]) {
				t.Errorf("%v.Point(%d) = %#x, want %#x", c.k, d, got, c.want[:d])
			}
		}
	}
}

// TestPointAllocatesOnlyItsResult: Point hashes from a stack buffer.
func TestPointAllocatesOnlyItsResult(t *testing.T) {
	k := KeyOf("S", "1")
	if n := testing.AllocsPerRun(100, func() { k.Point(4) }); n != 1 {
		t.Fatalf("Point(4) allocates %v times per call, want 1", n)
	}
}
