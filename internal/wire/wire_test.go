package wire

import (
	"encoding/binary"
	"math"
	"strings"
	"testing"
	"time"

	"pier/internal/env"
)

// testMsg exercises every primitive the codec offers.
type testMsg struct {
	U   uint64
	I   int64
	F   float64
	W   uint64 // fixed64
	B   bool
	S   string
	T   time.Time
	D   time.Duration
	V   any
	Sub env.Message
}

func (m *testMsg) WireSize() int { return Size(m) }

func init() {
	Register(255, func(c *Codec, t *testMsg) {
		c.Uvarint(&t.U)
		c.Varint(&t.I)
		c.Float64(&t.F)
		c.Fixed64(&t.W)
		c.Bool(&t.B)
		c.String(&t.S)
		c.Time(&t.T)
		Signed(c, &t.D)
		c.Value(&t.V)
		c.Message(&t.Sub)
	})
}

func roundTrip(t *testing.T, m env.Message) env.Message {
	t.Helper()
	b, err := Marshal(m)
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	got, err := Unmarshal(b)
	if err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}
	if size := m.WireSize(); size != len(b) {
		t.Fatalf("WireSize() = %d, encoded %d bytes", size, len(b))
	}
	return got
}

func TestExtremes(t *testing.T) {
	cases := []*testMsg{
		{U: math.MaxUint64, I: math.MinInt64, F: math.Inf(-1), W: math.MaxUint64},
		{I: math.MaxInt64, F: math.SmallestNonzeroFloat64, V: int64(math.MinInt64)},
		{U: 0, I: 0, S: "", V: nil},
		{S: strings.Repeat("x", 10_000), V: "émoji 🐟", D: -time.Hour},
		{T: time.Unix(0, 1234567890), V: false, B: true},
		{T: time.Time{}, V: math.Pi, Sub: &testMsg{U: 7, V: true}},
	}
	for i, m := range cases {
		got := roundTrip(t, m)
		g := got.(*testMsg)
		if g.U != m.U || g.I != m.I || g.S != m.S || g.B != m.B || g.D != m.D {
			t.Fatalf("#%d: scalar mismatch: %+v vs %+v", i, g, m)
		}
		if g.W != m.W {
			t.Fatalf("#%d: fixed64 mismatch", i)
		}
		if math.Float64bits(g.F) != math.Float64bits(m.F) {
			t.Fatalf("#%d: float mismatch", i)
		}
		if !g.T.Equal(m.T) || g.T.IsZero() != m.T.IsZero() {
			t.Fatalf("#%d: time mismatch %v vs %v", i, g.T, m.T)
		}
		if g.V != m.V {
			t.Fatalf("#%d: value mismatch %#v vs %#v", i, g.V, m.V)
		}
		if (g.Sub == nil) != (m.Sub == nil) {
			t.Fatalf("#%d: sub mismatch", i)
		}
	}
}

func TestNilMessage(t *testing.T) {
	b, err := Marshal(nil)
	if err != nil || len(b) != 1 || b[0] != 0 {
		t.Fatalf("Marshal(nil) = %v, %v", b, err)
	}
	m, err := Unmarshal(b)
	if err != nil || m != nil {
		t.Fatalf("Unmarshal(nil frame) = %v, %v", m, err)
	}
	// A typed nil pointer also encodes as nil.
	b, err = Marshal((*testMsg)(nil))
	if err != nil || len(b) != 1 || b[0] != 0 {
		t.Fatalf("Marshal(typed nil) = %v, %v", b, err)
	}
}

func TestUnregisteredTypeFailsEncode(t *testing.T) {
	if _, err := Marshal(unregisteredMsg{}); err == nil {
		t.Fatal("Marshal(unregistered) succeeded")
	}
}

type unregisteredMsg struct{}

func (unregisteredMsg) WireSize() int { return 17 }

// otherMsg is a second registrable type that stays unregistered.
type otherMsg struct{}

func (*otherMsg) WireSize() int { return 0 }

// TestCountingChargesUnregisteredLiteral: a message with no wire tag
// nested in a registered one is charged its own literal WireSize().
func TestCountingChargesUnregisteredLiteral(t *testing.T) {
	bare := (&testMsg{}).WireSize()
	if got := (&testMsg{Sub: unregisteredMsg{}}).WireSize(); got != bare-1+17 {
		t.Fatalf("WireSize with unregistered payload = %d, want %d", got, bare-1+17)
	}
}

func TestUnknownTagFailsDecode(t *testing.T) {
	if _, err := Unmarshal([]byte{99}); err == nil {
		t.Fatal("Unmarshal(unknown tag) succeeded")
	}
}

func TestTrailingBytesRejected(t *testing.T) {
	b, _ := Marshal(&testMsg{})
	if _, err := Unmarshal(append(b, 0xAB)); err == nil {
		t.Fatal("trailing bytes accepted")
	}
}

func TestTruncationIsAnErrorNotAPanic(t *testing.T) {
	b, _ := Marshal(&testMsg{
		U: 1 << 40, I: -5, F: 2.5, W: 42, B: true, S: "hello",
		T: time.Unix(0, 99), D: time.Second, V: "world", Sub: &testMsg{},
	})
	for cut := 0; cut < len(b); cut++ {
		if _, err := Unmarshal(b[:cut]); err == nil {
			t.Fatalf("truncation at %d/%d accepted", cut, len(b))
		}
	}
}

func TestCorruptLengthDoesNotAllocate(t *testing.T) {
	// A huge string length must fail the Len guard instead of allocating.
	b, _ := Marshal(&testMsg{})
	b = b[:1+1+1+8+8+1]                            // tag, U, I, F, W, B
	b = binary.AppendUvarint(b, math.MaxUint32<<8) // corrupt string length
	if _, err := Unmarshal(b); err == nil {
		t.Fatal("corrupt length accepted")
	}
}

func TestDeepNestingFailsInsteadOfOverflowing(t *testing.T) {
	// Just-legal nesting round-trips.
	m := &testMsg{}
	for i := 0; i < maxNesting-1; i++ {
		m = &testMsg{Sub: m}
	}
	roundTrip(t, m)
	// One level deeper must be a decode error, not a stack overflow.
	b, err := Marshal(&testMsg{Sub: m})
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	if _, err := Unmarshal(b); err == nil {
		t.Fatal("over-deep nesting accepted")
	}
	// The hostile shape: a frame that is nothing but nested message tags.
	bomb := make([]byte, 1<<16)
	for i := range bomb {
		bomb[i] = 255 // testMsg tag, recursing into Sub forever
	}
	if _, err := Unmarshal(bomb); err == nil {
		t.Fatal("tag bomb accepted")
	}
}

func TestBadValueTag(t *testing.T) {
	var d Codec
	d.Reset([]byte{42})
	var v any
	d.Value(&v)
	if d.Err() == nil {
		t.Fatal("unknown value tag accepted")
	}
}

func TestRegisterCollisionsPanic(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("tag 0", func() { Register(0, func(*Codec, *testMsg) {}) })
	mustPanic("dup tag", func() { Register(255, func(*Codec, *otherMsg) {}) })
	mustPanic("dup type", func() { Register(254, func(*Codec, *testMsg) {}) })
}

func TestRegisteredEnumerates(t *testing.T) {
	tags := Registered()
	found := false
	for _, tag := range tags {
		if tag == 255 {
			found = true
		}
	}
	if !found {
		t.Fatalf("Registered() = %v, missing test tag", tags)
	}
}
