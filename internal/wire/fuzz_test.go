package wire_test

import (
	"encoding/binary"
	"testing"
	"time"

	"pier/internal/core"
	"pier/internal/core/bloom"
	"pier/internal/dht/multicast"
	"pier/internal/dht/storage"
	"pier/internal/env"
	"pier/internal/index"
	"pier/internal/stats"
	"pier/internal/trace"
	"pier/internal/wire"
	"pier/internal/workload"
)

// fuzzSeedMessages builds representative valid messages across the
// registered codec vocabulary: rich plans with expression trees, tuples
// with every scalar kind, nested payloads (flood envelope → item →
// tuple), statistics summaries with sketches, and aggregate state.
// Importing the message packages registers their codecs.
func fuzzSeedMessages() []env.Message {
	plan := workload.JoinPlan(core.BloomJoin, 49, 49, 49)
	plan.TTL = time.Minute
	plan.GroupBy = nil
	tuple := &core.Tuple{Rel: "R", Vals: []core.Value{int64(7), "abc", 2.5, true, nil}, Pad: 64}
	sparse, dense := bloom.New(1<<12, 4), bloom.New(256, 4)
	sparse.Add("salmon")
	dense.Saturate()
	sketch := stats.NewSketch(0)
	for _, k := range []string{"a", "b", "c", "dd"} {
		sketch.Add(k)
	}
	item := &storage.Item{
		Namespace:  "R",
		ResourceID: "42",
		InstanceID: 3,
		Expires:    time.Unix(100, 0),
		Payload:    tuple,
	}
	return []env.Message{
		plan,
		tuple,
		item,
		&core.AggState{Count: 3, SumI: 12, MinV: int64(1), MaxV: int64(9), Seen: true},
		&stats.Summary{Table: "R", Nodes: 2, Tuples: 100, Bytes: 4096, Keys: sketch},
		&multicast.FloodMsg{Origin: "sim:1", Seq: 9, Hint: []uint32{1, 2, 3, 4}, Payload: item},
		&index.Entry{K: wire.OrderedKey(int64(49)), RID: "42", IID: 3, T: tuple},
		&index.Def{Name: "r_num2", Table: "R", Col: "num2", ColIdx: 2},
		sparse,
		dense,
		&trace.Span{Stage: trace.StageResultFlush, Node: "sim:2", Start: 12345, Dur: time.Millisecond, Note: "8 tuples w0", Seq: 7},
	}
}

// FuzzDecode throws arbitrary bytes at the frame decoder. Any input may
// be rejected, but none may panic; and anything the decoder accepts
// must re-encode and decode again cleanly (the transport forwards
// decoded messages, so a decode-only-once message would wedge it) and
// must size honestly: WireSize() — what storage quotas and the
// statistics catalog charge a received message — neither panics nor
// departs from the re-encoding's length plus the declared pad.
func FuzzDecode(f *testing.F) {
	for _, m := range fuzzSeedMessages() {
		b, err := wire.Marshal(m)
		if err != nil {
			f.Fatalf("seed message %#v failed to encode: %v", m, err)
		}
		f.Add(b)
	}
	// One truncated-body seed per registered tag steers the fuzzer into
	// every codec, including ones with no exported constructor.
	for _, tag := range wire.Registered() {
		f.Add([]byte{tag})
		f.Add(append([]byte{tag}, 0x01, 0x80, 0x80, 0x01, 0xff, 0x00, 0x02))
	}
	// A hand-built putThrottleMsg frame (tag 38, provider backpressure):
	// the provider's message types are unexported, so the only way to
	// seed a fully-valid frame — item, attempt counter, retry-after —
	// is to lay out the bytes directly.
	if itemBytes, err := wire.Marshal(fuzzSeedMessages()[2]); err == nil {
		throttle := append([]byte{38}, itemBytes...)
		throttle = append(throttle, 1)                                 // attempt
		throttle = binary.AppendVarint(throttle, int64(2*time.Second)) // retry-after
		f.Add(throttle)
	}
	// Hand-built Bloom contributions (tag 5, core's unexported
	// bloomPut): side 1 and a quarter of the key space, with no filter
	// (a node holding no rows) and with each filter form.
	contribution := binary.AppendUvarint([]byte{5, 2}, 1<<61)
	f.Add(append(append([]byte(nil), contribution...), 0))
	for _, m := range fuzzSeedMessages() {
		if fl, ok := m.(*bloom.Filter); ok {
			fb, _ := wire.Marshal(fl)
			f.Add(append(append([]byte(nil), contribution...), fb...))
		}
	}
	// A 20-byte tuple declaring a pad no frame could carry (rejected
	// above wire.MaxPad), and one declaring the largest legal pad.
	if tupleBytes, err := wire.Marshal(&core.Tuple{Rel: "R", Vals: []core.Value{int64(7)}}); err == nil {
		head := tupleBytes[:len(tupleBytes)-1] // the final byte is Pad's varint
		f.Add(binary.AppendVarint(append([]byte(nil), head...), 1<<62))
		f.Add(binary.AppendVarint(append([]byte(nil), head...), wire.MaxPad))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		m, err := wire.Unmarshal(b)
		if err != nil {
			return
		}
		if m == nil {
			return
		}
		b2, err := wire.Marshal(m)
		if err != nil {
			t.Fatalf("accepted frame re-encode failed: %v\nframe %x\nmessage %#v", err, b, m)
		}
		if _, err := wire.Unmarshal(b2); err != nil {
			t.Fatalf("re-encoded frame rejected: %v\nframe %x", err, b2)
		}
		if size, want := m.WireSize(), len(b2)+wire.PadSize(m); size != want {
			t.Fatalf("WireSize() = %d, want %d re-encoded + %d pad bytes\nframe %x", size, len(b2), wire.PadSize(m), b)
		}
	})
}
