package core

import (
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"time"

	"pier/internal/core/bloom"
	"pier/internal/env"
	"pier/internal/trace"
	"pier/internal/wire"
	"pier/internal/wire/wiretest"
)

func randTuple(r *rand.Rand) *Tuple {
	t := &Tuple{Rel: wiretest.Str(r, 8), Pad: r.Intn(2048)}
	if n := r.Intn(6); n > 0 {
		t.Vals = make([]Value, n)
		for i := range t.Vals {
			t.Vals[i] = wiretest.Value(r)
		}
	}
	return t
}

func randFilter(r *rand.Rand) *bloom.Filter {
	f := bloom.New(64+r.Intn(512), 1+r.Intn(6))
	for i := 0; i < r.Intn(64); i++ {
		f.Add(wiretest.Str(r, 10))
	}
	return f
}

func randAggState(r *rand.Rand) *AggState {
	s := &AggState{
		Count: wiretest.Int64(r),
		SumI:  wiretest.Int64(r),
		Float: r.Intn(2) == 0,
	}
	if s.Float {
		s.SumF = r.NormFloat64()
	}
	if r.Intn(2) == 0 {
		s.Seen = true
		s.MinV = wiretest.Value(r)
		s.MaxV = wiretest.Value(r)
	}
	return s
}

func randExpr(r *rand.Rand, depth int) Expr {
	if depth <= 0 {
		if r.Intn(2) == 0 {
			return &Col{Idx: int(wiretest.Int64(r))}
		}
		return &Const{V: wiretest.Value(r)}
	}
	switch r.Intn(6) {
	case 0:
		return &Cmp{Op: CmpOp(r.Intn(6)), L: randExpr(r, depth-1), R: randExpr(r, depth-1)}
	case 1:
		return &And{L: randExpr(r, depth-1), R: randExpr(r, depth-1)}
	case 2:
		return &Or{L: randExpr(r, depth-1), R: randExpr(r, depth-1)}
	case 3:
		return &Not{E: randExpr(r, depth-1)}
	case 4:
		return &Arith{Op: ArithOp(r.Intn(5)), L: randExpr(r, depth-1), R: randExpr(r, depth-1)}
	default:
		n := r.Intn(3)
		args := make([]Expr, 0, n)
		for i := 0; i < n; i++ {
			args = append(args, randExpr(r, depth-1))
		}
		if len(args) == 0 {
			args = nil
		}
		return &Call{Name: wiretest.Str(r, 8), Args: args}
	}
}

func randPlan(r *rand.Rand) *Plan {
	p := &Plan{
		Strategy:    Strategy(r.Intn(4)),
		TTL:         time.Duration(wiretest.Int64(r)),
		BloomWait:   time.Duration(wiretest.Int64(r)),
		AggWait:     time.Duration(wiretest.Int64(r)),
		BloomBits:   int(wiretest.Int64(r)),
		BloomHashes: r.Intn(8),
	}
	nt := 1 + r.Intn(2)
	p.Tables = make([]TableRef, nt)
	for i := range p.Tables {
		tr := &p.Tables[i]
		tr.NS = wiretest.Str(r, 10)
		if r.Intn(2) == 0 {
			tr.Filter = randExpr(r, 2)
		}
		tr.RIDCol = r.Intn(8) - 1
		if r.Intn(3) == 0 {
			lo := r.Uint64()
			tr.IndexScan = &IndexRangeScan{Index: wiretest.Str(r, 8), Lo: lo, Hi: lo + uint64(r.Int63())}
		}
		if n := r.Intn(4); n > 0 {
			tr.Project = make([]int, n)
			tr.JoinCols = make([]int, n)
			for j := 0; j < n; j++ {
				tr.Project[j] = r.Intn(8)
				tr.JoinCols[j] = r.Intn(8)
			}
		}
	}
	if r.Intn(2) == 0 {
		p.PostFilter = randExpr(r, 2)
	}
	if n := r.Intn(3); n > 0 {
		p.GroupBy = make([]int, n)
		p.Aggs = make([]Aggregate, n)
		for i := 0; i < n; i++ {
			p.GroupBy[i] = r.Intn(8)
			p.Aggs[i] = Aggregate{Kind: AggKind(r.Intn(5)), Col: r.Intn(8) - 1}
		}
		if r.Intn(2) == 0 {
			p.Having = randExpr(r, 1)
		}
	}
	if n := r.Intn(3); n > 0 {
		p.Output = make([]Expr, n)
		for i := range p.Output {
			p.Output[i] = randExpr(r, 1)
		}
	}
	p.ComputeNodes = int(wiretest.Int64(r))
	p.AggFanout = r.Intn(8)
	p.AutoStrategy = r.Intn(2) == 0
	p.AutoAccess = r.Intn(2) == 0
	p.Trace = r.Intn(2) == 0
	if r.Intn(4) == 0 {
		p.Continuous = true
		p.Every = time.Duration(1 + wiretest.Uint64(r)>>1)
		p.Windows = r.Intn(10)
	}
	return p
}

// drainResultMsgPool empties resultMsgPool (sync.Pool drops its contents
// over two collections). Decode fills pooled shells, and a shell that an
// earlier test recycled carries an empty non-nil Tuples slice, which
// reflect.DeepEqual tells apart from the nil a zero-tuple frame is built
// with; the round-trip tests must not depend on whether a collection
// happened to run since.
func drainResultMsgPool() {
	runtime.GC()
	runtime.GC()
}

// TestWireRoundTrip is the codec property test for every message type
// the query processor registers (see wiretest.RoundTrip).
func TestWireRoundTrip(t *testing.T) {
	drainResultMsgPool()
	wiretest.RoundTrip(t, 1, 200, 1, 31, "4365a87792733f46", []wiretest.Gen{
		{Name: "queryMsg", Make: func(r *rand.Rand) env.Message {
			return &queryMsg{ID: r.Uint64(), Initiator: wiretest.Addr(r), Trace: r.Intn(2) == 0, Plan: randPlan(r)}
		}},
		{Name: "resultMsg", Make: func(r *rand.Rand) env.Message {
			m := &resultMsg{ID: r.Uint64(), Window: int(wiretest.Int64(r))}
			if n := r.Intn(5); n > 0 {
				m.Tuples = make([]*Tuple, n)
				for i := range m.Tuples {
					m.Tuples[i] = randTuple(r)
				}
			}
			if n := r.Intn(4); n > 0 {
				m.Spans = make([]trace.Span, n)
				for i := range m.Spans {
					m.Spans[i] = trace.Span{
						Stage: trace.Stage(r.Intn(trace.NumStages)),
						Node:  wiretest.Addr(r),
						Start: wiretest.Int64(r),
						Dur:   time.Duration(wiretest.Uint64(r) >> 1),
						Note:  wiretest.Str(r, 12),
						Seq:   r.Uint32(),
					}
				}
				m.SpanDrops = wiretest.Uint64(r)
			}
			return m
		}},
		{Name: "sideTuple", Make: func(r *rand.Rand) env.Message {
			return &sideTuple{Side: r.Intn(2), T: randTuple(r)}
		}},
		{Name: "miniTuple", Make: func(r *rand.Rand) env.Message {
			return &miniTuple{Side: r.Intn(2), RID: wiretest.Str(r, 16), Key: wiretest.Str(r, 16)}
		}},
		{Name: "bloomPut", Make: func(r *rand.Rand) env.Message {
			return &bloomPut{Side: r.Intn(2), F: randFilter(r)}
		}},
		{Name: "bloomDist", Make: func(r *rand.Rand) env.Message {
			return &bloomDist{ID: r.Uint64(), Side: r.Intn(2), F: randFilter(r)}
		}},
		{Name: "partialAgg", Make: func(r *rand.Rand) env.Message {
			m := &partialAgg{Window: int(wiretest.Int64(r))}
			if n := r.Intn(3); n > 0 {
				m.Group = make([]Value, n)
				for i := range m.Group {
					m.Group[i] = wiretest.Value(r)
				}
			}
			if n := r.Intn(4); n > 0 {
				m.States = make([]*AggState, n)
				for i := range m.States {
					m.States[i] = randAggState(r)
				}
			}
			return m
		}},
		{Name: "cancelMsg", Make: func(r *rand.Rand) env.Message {
			return &cancelMsg{ID: r.Uint64()}
		}},
		{Name: "creditMsg", Make: func(r *rand.Rand) env.Message {
			return &creditMsg{ID: wiretest.Uint64(r), Limit: int64(wiretest.Uint64(r) >> 1)}
		}},
		{Name: "Tuple", Make: func(r *rand.Rand) env.Message { return randTuple(r) }},
		{Name: "Plan", Make: func(r *rand.Rand) env.Message { return randPlan(r) }},
		{Name: "AggState", Make: func(r *rand.Rand) env.Message { return randAggState(r) }},
		{Name: "Filter", Make: func(r *rand.Rand) env.Message { return randFilter(r) }},
		{Name: "Expr", Make: func(r *rand.Rand) env.Message { return randExpr(r, r.Intn(4)) }},
		{Name: "IndexRangeScan", Make: func(r *rand.Rand) env.Message {
			return &IndexRangeScan{Index: wiretest.Str(r, 8), Lo: r.Uint64(), Hi: r.Uint64()}
		}},
	})
}

// TestWireExtremeValues covers the int64/float64 extremes the bounded
// property generators avoid (no size relation is asserted — WireSize
// models int64 values as 9 bytes while a full-range zigzag varint plus
// tag can take 11).
func TestWireExtremeValues(t *testing.T) {
	drainResultMsgPool()
	msgs := []env.Message{
		&Tuple{Rel: "r", Vals: []Value{int64(math.MinInt64), int64(math.MaxInt64), math.Inf(1), "", nil}},
		&AggState{Count: math.MaxInt64, SumI: math.MinInt64, SumF: math.Inf(-1), Seen: true, MinV: int64(math.MinInt64), MaxV: int64(math.MaxInt64)},
		&miniTuple{Side: 1, RID: "", Key: ""},
		&queryMsg{ID: math.MaxUint64, Initiator: "203.0.113.7:65535", Trace: true, Plan: &Plan{}},
		&resultMsg{ID: 1, SpanDrops: math.MaxUint64, Spans: []trace.Span{
			{Stage: trace.StageCollect, Node: "n", Start: math.MinInt64, Dur: math.MaxInt64, Seq: math.MaxUint32},
		}},
	}
	for i, m := range msgs {
		b, err := wire.Marshal(m)
		if err != nil {
			t.Fatalf("#%d: Marshal: %v", i, err)
		}
		got, err := wire.Unmarshal(b)
		if err != nil {
			t.Fatalf("#%d: Unmarshal: %v", i, err)
		}
		if !reflect.DeepEqual(got, m) {
			t.Fatalf("#%d: round trip\n got %#v\nwant %#v", i, got, m)
		}
	}
}

// TestHostileFieldValuesRejected: values a correct sender can never
// produce but whose acceptance would panic or wedge the executor —
// join sides outside {0, 1} (used to index plan.Tables), Bloom filters
// with a zero-length bit array (divide by zero in Test/Add) or an
// absurd hash count (CPU wedge) — must fail the frame at decode.
func TestHostileFieldValuesRejected(t *testing.T) {
	reject := func(name string, m env.Message, fix func(b []byte) []byte) {
		b, err := wire.Marshal(m)
		if err != nil {
			t.Fatalf("%s: Marshal: %v", name, err)
		}
		if fix != nil {
			b = fix(b)
		}
		if _, err := wire.Unmarshal(b); err == nil {
			t.Errorf("%s: hostile frame accepted", name)
		}
	}
	reject("sideTuple side=7", nil, func([]byte) []byte {
		b, _ := wire.Marshal(&sideTuple{Side: 0, T: &Tuple{Rel: "r"}})
		b[1] = 14 // zigzag(7) overwrites the side varint
		return b
	})
	reject("miniTuple side=-1", nil, func([]byte) []byte {
		b, _ := wire.Marshal(&miniTuple{Side: 0})
		b[1] = 1 // zigzag(-1)
		return b
	})
	reject("bloom filter K=0", &bloomPut{Side: 0, F: &bloom.Filter{K: 0, Bits: []uint64{1}}}, nil)
	reject("bloom filter K=2^60", &bloomPut{Side: 0, F: &bloom.Filter{K: 1 << 60, Bits: []uint64{1}}}, nil)
	reject("bloom filter empty bits", &bloomDist{ID: 1, Side: 1, F: &bloom.Filter{K: 4}}, nil)
	reject("creditMsg negative limit", &creditMsg{ID: 1, Limit: -5}, nil)
}

// TestNilRequiredFieldsRejected: tag 0 in handler-dereferenced
// positions (query plans, rehash tuples, filters, expression children)
// must fail decode instead of producing a message that nil-derefs on
// the event loop.
func TestNilRequiredFieldsRejected(t *testing.T) {
	cases := map[string][]byte{
		"queryMsg nil plan":   {tagQueryMsg, 1, 1, 'a', 0, 0},
		"sideTuple nil tuple": {tagSideTuple, 0, 0},
		"bloomPut nil filter": {tagBloomPut, 0, 0},
		"not nil child":       {tagExprNot, 0},
		"cmp nil right":       {tagExprCmp, 0, tagExprCol, 2, 0},
	}
	for name, b := range cases {
		if _, err := wire.Unmarshal(b); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestNestingBombFailsCleanly decodes a frame that is nothing but
// nested NOT-expression tags: each byte recurses Decoder.Message, so
// without wire's depth limit this overflows the stack and kills the
// process instead of dropping the connection.
func TestNestingBombFailsCleanly(t *testing.T) {
	bomb := make([]byte, 1<<20)
	for i := range bomb {
		bomb[i] = 21 // tagExprNot: decode recurses immediately
	}
	if _, err := wire.Unmarshal(bomb); err == nil {
		t.Fatal("nesting bomb accepted")
	}
}

// BenchmarkWireCodec measures encode+decode of representative PIER
// messages.
func BenchmarkWireCodec(b *testing.B) {
	r := rand.New(rand.NewSource(7))
	msgs := map[string]env.Message{
		"miniTuple":  &miniTuple{Side: 1, RID: "resource-4711", Key: "join-key-42"},
		"sideTuple":  &sideTuple{Side: 0, T: &Tuple{Rel: "R", Vals: []Value{int64(42), "payload", 3.14}, Pad: 1024}},
		"partialAgg": &partialAgg{Window: 3, Group: []Value{"group-a"}, States: []*AggState{randAggState(r)}},
		"queryMsg":   &queryMsg{ID: 99, Initiator: "203.0.113.7:4711", Plan: randPlan(r)},
	}
	for name, m := range msgs {
		b.Run(name+"/binary", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				buf, err := wire.Marshal(m)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := wire.Unmarshal(buf); err != nil {
					b.Fatal(err)
				}
				b.SetBytes(int64(len(buf)))
			}
		})
	}
}
