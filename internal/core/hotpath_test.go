package core

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
	"time"

	"pier/internal/env"
	"pier/internal/trace"
	"pier/internal/wire"
)

// Regression: CompareValues used to compute sign64(ai-bi), whose
// subtraction overflows for operands straddling ±2^63 and inverts the
// order — MinInt64 compared greater than 1, corrupting every sort,
// min/max aggregate, and index range over such values.
func TestCompareValuesInt64Overflow(t *testing.T) {
	cases := []struct {
		a, b int64
		want int
	}{
		{math.MinInt64, 1, -1},
		{1, math.MinInt64, 1},
		{math.MaxInt64, -1, 1},
		{-1, math.MaxInt64, -1},
		{math.MinInt64, math.MaxInt64, -1},
		{math.MinInt64, math.MinInt64, 0},
		{42, 42, 0},
	}
	for _, c := range cases {
		if got := CompareValues(c.a, c.b); got != c.want {
			t.Errorf("CompareValues(%d, %d) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

// Regression: a tuple's Pad arrives over the network as a signed
// varint and flows into WireSize and the simulator's bandwidth model;
// a crafted negative pad used to decode fine and corrupt both. It must
// fail the frame — standalone and inside a result frame.
func TestNegativeTuplePadRejected(t *testing.T) {
	tup, err := wire.Marshal(&Tuple{Rel: "r"})
	if err != nil {
		t.Fatal(err)
	}
	// The final byte is Pad's varint: 0. Overwrite with zigzag(-1).
	tup[len(tup)-1] = 1
	if _, err := wire.Unmarshal(tup); err == nil {
		t.Error("standalone tuple with negative pad accepted")
	}

	frame, err := wire.Marshal(&resultMsg{ID: 1, Tuples: []*Tuple{{Rel: "r"}}})
	if err != nil {
		t.Fatal(err)
	}
	// Frame tail is [pad, spansLen, spanDrops] = [0, 0, 0].
	frame[len(frame)-3] = 1
	if _, err := wire.Unmarshal(frame); err == nil {
		t.Error("result frame with negative tuple pad accepted")
	}
}

// Regression: a frame may not declare more pad than a frame can carry.
// The pad is charged (storage quotas, the statistics catalog's Bytes,
// Concat's pad sum) but never sent, so a 20-byte frame declaring 1<<62
// used to empty a namespace through quota eviction.
func TestOversizedTuplePadRejected(t *testing.T) {
	craft := func(pad int64) []byte {
		b, err := wire.Marshal(&Tuple{Rel: "r", Vals: []Value{int64(1)}})
		if err != nil {
			t.Fatal(err)
		}
		return binary.AppendVarint(b[:len(b)-1], pad) // the final byte is Pad's varint
	}
	for _, pad := range []int64{wire.MaxPad + 1, 1 << 62} {
		if _, err := wire.Unmarshal(craft(pad)); err == nil {
			t.Errorf("tuple declaring %d pad bytes accepted", pad)
		}
	}
	m, err := wire.Unmarshal(craft(wire.MaxPad))
	if err != nil || m.(*Tuple).Pad != wire.MaxPad {
		t.Fatalf("tuple declaring the largest legal pad: %v, %v", m, err)
	}
}

// bigResultFrame is a representative 32-tuple result frame with
// repeated relation and string values, as a real query produces.
// Values stick to small ints (the runtime boxes [0,256) for free) and
// repeated strings (served pre-boxed from the intern table); float
// columns inherently allocate one box per decode because Value is
// []any, and are measured separately from the structural gate here.
func bigResultFrame(tb testing.TB) []byte {
	rm := &resultMsg{ID: 7, Window: 0}
	for i := 0; i < 32; i++ {
		rm.Tuples = append(rm.Tuples, &Tuple{
			Rel:  "result",
			Vals: []Value{int64(i), "host-" + string(rune('a'+i%4)), "us-west", int64(i % 7)},
			Pad:  64,
		})
	}
	b, err := wire.Marshal(rm)
	if err != nil {
		tb.Fatal(err)
	}
	return b
}

// raceEnabled is set by race_test.go when the test binary is built with
// -race, which changes sync.Pool's retention and so the alloc counts.
var raceEnabled bool

// TestResultFrameDecodeAllocs gates the zero-copy decode path: one
// pooled frame shell plus the two slab blocks (tuples, values) per
// 32-tuple frame, with relation and repeated string values served
// from the decoder's intern table. The pre-slab decoder paid two
// allocations per tuple plus one per string value — over 160 for this
// frame — so the gate also pins the required ≥5x reduction.
func TestResultFrameDecodeAllocs(t *testing.T) {
	b := bigResultFrame(t)
	var dec wire.Codec
	var m env.Message
	dec.SetIntern(wire.NewIntern(0))
	// Warm the intern table and the frame pool outside the measurement.
	dec.Reset(b)
	if dec.Message(&m); m != nil {
		m.(*resultMsg).Recycle()
	}
	allocs := testing.AllocsPerRun(200, func() {
		dec.Reset(b)
		dec.Message(&m)
		if dec.Err() != nil {
			t.Fatal(dec.Err())
		}
		m.(*resultMsg).Recycle()
	})
	// Slab (tuples) + slab (values): 2.0 measured. The limit was 8 while
	// BENCH_1.json's allocs_per_op record (2.0, failing CI above 2.5)
	// was the real gate; with that ledger retired this is the gate, so
	// it holds the measured value. Under the race detector sync.Pool
	// drops a quarter of its Puts, so the frame shell is reallocated on
	// some runs (3-4 measured) and only the old slack can be asserted.
	limit := 2.0
	if raceEnabled {
		limit = 8
	}
	if allocs > limit {
		t.Fatalf("decode of 32-tuple frame: %.1f allocs, want <= %.0f", allocs, limit)
	}
}

// TestResultFrameEncodeAllocs gates the writer-side path: appending a
// frame to a reused scratch buffer (what realnet's batch writer does)
// costs no allocation (wire.Append runs a pooled Codec) regardless of
// tuple count. The old path Marshal-ed every frame: a fresh buffer plus its
// growth copies, O(frame size) per send.
func TestResultFrameEncodeAllocs(t *testing.T) {
	b := bigResultFrame(t)
	m, err := wire.Unmarshal(b)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 0, 2*len(b))
	allocs := testing.AllocsPerRun(200, func() {
		var err error
		buf, err = wire.Append(buf[:0], m)
		if err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Fatalf("encode into reused buffer: %.1f allocs, want 0", allocs)
	}
}

// TestResultFrameWireSizeAllocs: the simulator sizes every frame it
// sends, so counting must allocate nothing however many tuples ride.
func TestResultFrameWireSizeAllocs(t *testing.T) {
	rm := benchFrame(64)
	if allocs := testing.AllocsPerRun(200, func() { rm.WireSize() }); allocs != 0 {
		t.Fatalf("WireSize of a 64-tuple frame: %.1f allocs, want 0", allocs)
	}
}

// BenchmarkResultFrameDecode measures the shipping decode path: a
// persistent interned decoder filling pooled frame shells.
func BenchmarkResultFrameDecode(b *testing.B) {
	frame := bigResultFrame(b)
	var dec wire.Codec
	var m env.Message
	dec.SetIntern(wire.NewIntern(0))
	b.ReportAllocs()
	b.SetBytes(int64(len(frame)))
	for i := 0; i < b.N; i++ {
		dec.Reset(frame)
		dec.Message(&m)
		if dec.Err() != nil {
			b.Fatal(dec.Err())
		}
		m.(*resultMsg).Recycle()
	}
}

// BenchmarkResultFrameEncode measures the shipping encode path:
// appending a frame to the batch writer's reused scratch buffer.
func BenchmarkResultFrameEncode(b *testing.B) {
	frame := bigResultFrame(b)
	m, err := wire.Unmarshal(frame)
	if err != nil {
		b.Fatal(err)
	}
	buf := make([]byte, 0, 2*len(frame))
	b.ReportAllocs()
	b.SetBytes(int64(len(frame)))
	for i := 0; i < b.N; i++ {
		buf, err = wire.Append(buf[:0], m)
		if err != nil {
			b.Fatal(err)
		}
	}
}

// sinkEnv is a minimal env.Env for exercising the executor's result
// channel in isolation: Send recycles outbound frames like the real
// transport's writer, After returns an inert timer.
type sinkEnv struct {
	frames, tuples uint64
}

type sinkTimer struct{}

func (sinkTimer) Stop() {}

func (s *sinkEnv) Addr() env.Addr { return "sink" }
func (s *sinkEnv) Now() time.Time { return time.Unix(0, 0) }
func (s *sinkEnv) Post(f func())  { f() }
func (s *sinkEnv) Rand() *rand.Rand {
	return rand.New(rand.NewSource(1))
}
func (s *sinkEnv) After(d time.Duration, f func()) env.Timer { return sinkTimer{} }
func (s *sinkEnv) Send(to env.Addr, m env.Message) {
	if rm, ok := m.(*resultMsg); ok {
		s.frames++
		s.tuples += uint64(len(rm.Tuples))
	}
	if rec, ok := m.(env.Recycler); ok {
		rec.Recycle()
	}
}

// flushExec builds a bare executor over sinkEnv, bypassing the full
// engine stack: flushResults only touches cfg, counters, histograms,
// and the env.
func flushExec(cfg Config) (*exec, *sinkEnv) {
	se := &sinkEnv{}
	eng := &Engine{env: se, cfg: cfg, hFlushLat: trace.NewHistogram(nil)}
	ex := &exec{
		eng:       eng,
		id:        9,
		initiator: "sink",
		plan:      &Plan{},
		resLimit:  int64(cfg.ResultCredit),
	}
	return ex, se
}

// TestResultFlushAllocs gates the executor's flush path: emitting a
// full batch and flushing it must reuse the result buffer's backing
// array and a pooled frame, costing at most the flush-timer arm per
// cycle. The pre-pooling path allocated a fresh []*Tuple, a fresh
// resultMsg, and regrew resBuf from nil every flush.
func TestResultFlushAllocs(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ResultCredit = -1 // no credit: flushes never stall
	ex, se := flushExec(cfg)
	tup := &Tuple{Rel: "result", Vals: []Value{int64(1), "x"}}
	// Warm: grows resBuf and the frame pool's Tuples capacity.
	for i := 0; i < cfg.ResultBatch; i++ {
		ex.emit(tup, 0)
	}
	allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < cfg.ResultBatch; i++ {
			ex.emit(tup, 0)
		}
	})
	// One flush-timer closure + timer stub per cycle of 32 is the
	// only tolerated cost; the frame and both slices must be reused.
	if perBatch := allocs; perBatch > 3 {
		t.Fatalf("flush cycle of %d tuples: %.1f allocs, want <= 3", cfg.ResultBatch, perBatch)
	}
	if se.frames == 0 || se.tuples == 0 {
		t.Fatal("sink saw no frames — flush path not exercised")
	}
}
