package core

// Binary wire codecs for the query processor's message vocabulary
// (types in messages.go, tuple.go, expr.go, plan.go, and agg.go).

import (
	"pier/internal/core/bloom"
	"pier/internal/env"
	"pier/internal/trace"
	"pier/internal/wire"
)

// Wire tags owned by package core (see the tag table in package wire).
const (
	tagQueryMsg byte = 1 + iota
	tagResultMsg
	tagSideTuple
	tagMiniTuple
	tagBloomPut
	tagBloomDist
	tagPartialAgg
	tagTuple
	tagPlan
	tagAggState
	tagCancelMsg
	tagIndexScan
	tagCreditMsg
)

const (
	tagExprCol byte = 16 + iota
	tagExprConst
	tagExprCmp
	tagExprAnd
	tagExprOr
	tagExprNot
	tagExprArith
	tagExprCall
)

const tagBloomFilter byte = 24

func init() {
	wire.Register(tagQueryMsg, &queryMsg{},
		func(e *wire.Encoder, m env.Message) {
			q := m.(*queryMsg)
			e.Uvarint(q.ID)
			e.Addr(q.Initiator)
			e.Bool(q.Trace)
			e.Message(q.Plan)
		},
		func(d *wire.Decoder) env.Message {
			q := &queryMsg{ID: d.Uvarint(), Initiator: d.Addr(), Trace: d.Bool()}
			q.Plan = planField(d)
			return q
		})

	wire.Register(tagResultMsg, &resultMsg{},
		func(e *wire.Encoder, m env.Message) {
			r := m.(*resultMsg)
			e.Uvarint(r.ID)
			e.Int(r.Window)
			e.Len(len(r.Tuples))
			for _, t := range r.Tuples {
				e.Message(t)
			}
			e.Len(len(r.Spans))
			for i := range r.Spans {
				e.Message(&r.Spans[i])
			}
			e.Uvarint(r.SpanDrops)
		},
		func(d *wire.Decoder) env.Message {
			r := getResultMsg()
			r.ID = d.Uvarint()
			r.Window = d.Int()
			if n := d.Len(); n > 0 {
				// Slab decode: one []Tuple block and one shared []Value
				// block per frame instead of two allocations per tuple.
				// Pointers into the slab are taken only after it is fully
				// built — append may move it while it grows.
				slab := make([]Tuple, 0, wire.SliceCap(n))
				vals := make([]Value, 0, wire.SliceCap(4*n))
				for i := 0; i < n && d.Err() == nil; i++ {
					var t Tuple
					vals = decodeTupleInto(d, &t, vals)
					slab = append(slab, t)
				}
				for i := range slab {
					r.Tuples = append(r.Tuples, &slab[i])
				}
			}
			if n := d.Len(); n > 0 {
				r.Spans = make([]trace.Span, 0, wire.SliceCap(n))
				for i := 0; i < n && d.Err() == nil; i++ {
					if s := spanField(d); s != nil {
						r.Spans = append(r.Spans, *s)
					}
				}
			}
			r.SpanDrops = d.Uvarint()
			return r
		})

	wire.Register(tagSideTuple, &sideTuple{},
		func(e *wire.Encoder, m env.Message) {
			s := m.(*sideTuple)
			e.Int(s.Side)
			e.Message(s.T)
		},
		func(d *wire.Decoder) env.Message {
			return &sideTuple{Side: sideField(d), T: tupleField(d)}
		})

	wire.Register(tagMiniTuple, &miniTuple{},
		func(e *wire.Encoder, m env.Message) {
			t := m.(*miniTuple)
			e.Int(t.Side)
			e.String(t.RID)
			e.String(t.Key)
		},
		func(d *wire.Decoder) env.Message {
			return &miniTuple{Side: sideField(d), RID: d.String(), Key: d.String()}
		})

	wire.Register(tagBloomPut, &bloomPut{},
		func(e *wire.Encoder, m env.Message) {
			b := m.(*bloomPut)
			e.Int(b.Side)
			e.Message(b.F)
		},
		func(d *wire.Decoder) env.Message {
			return &bloomPut{Side: sideField(d), F: filterField(d)}
		})

	wire.Register(tagBloomDist, &bloomDist{},
		func(e *wire.Encoder, m env.Message) {
			b := m.(*bloomDist)
			e.Uvarint(b.ID)
			e.Int(b.Side)
			e.Message(b.F)
		},
		func(d *wire.Decoder) env.Message {
			return &bloomDist{ID: d.Uvarint(), Side: sideField(d), F: filterField(d)}
		})

	wire.Register(tagPartialAgg, &partialAgg{},
		func(e *wire.Encoder, m env.Message) {
			p := m.(*partialAgg)
			e.Int(p.Window)
			e.Len(len(p.Group))
			for _, v := range p.Group {
				e.Value(v)
			}
			e.Len(len(p.States))
			for _, s := range p.States {
				encodeAggState(e, s)
			}
		},
		func(d *wire.Decoder) env.Message {
			p := &partialAgg{Window: d.Int()}
			if n := d.Len(); n > 0 {
				p.Group = make([]Value, 0, wire.SliceCap(n))
				for i := 0; i < n && d.Err() == nil; i++ {
					p.Group = append(p.Group, d.Value())
				}
			}
			if n := d.Len(); n > 0 {
				p.States = make([]*AggState, 0, wire.SliceCap(n))
				for i := 0; i < n && d.Err() == nil; i++ {
					p.States = append(p.States, decodeAggState(d))
				}
			}
			return p
		})

	wire.Register(tagTuple, &Tuple{},
		func(e *wire.Encoder, m env.Message) {
			t := m.(*Tuple)
			e.String(t.Rel)
			e.Len(len(t.Vals))
			for _, v := range t.Vals {
				e.Value(v)
			}
			e.Int(t.Pad)
		},
		func(d *wire.Decoder) env.Message {
			t := &Tuple{Rel: d.String()}
			if n := d.Len(); n > 0 {
				t.Vals = make([]Value, 0, wire.SliceCap(n))
				for i := 0; i < n && d.Err() == nil; i++ {
					t.Vals = append(t.Vals, d.Value())
				}
			}
			t.Pad = d.Int()
			// Pad is a payload byte count; a crafted negative one yields a
			// negative WireSize and corrupts pad accounting through Concat.
			if d.Err() == nil && t.Pad < 0 {
				d.Fail("negative tuple pad")
			}
			return t
		})

	wire.Register(tagPlan, &Plan{}, encodePlan, decodePlan)

	wire.Register(tagIndexScan, &IndexRangeScan{},
		func(e *wire.Encoder, m env.Message) {
			s := m.(*IndexRangeScan)
			e.String(s.Index)
			// Encoded keys are high-entropy: fixed words beat varints.
			e.Fixed64(s.Lo)
			e.Fixed64(s.Hi)
		},
		func(d *wire.Decoder) env.Message {
			return &IndexRangeScan{Index: d.String(), Lo: d.Fixed64(), Hi: d.Fixed64()}
		})

	wire.Register(tagCancelMsg, &cancelMsg{},
		func(e *wire.Encoder, m env.Message) { e.Uvarint(m.(*cancelMsg).ID) },
		func(d *wire.Decoder) env.Message { return &cancelMsg{ID: d.Uvarint()} })

	wire.Register(tagCreditMsg, &creditMsg{},
		func(e *wire.Encoder, m env.Message) {
			c := m.(*creditMsg)
			e.Uvarint(c.ID)
			e.Varint(c.Limit)
		},
		func(d *wire.Decoder) env.Message {
			c := &creditMsg{ID: d.Uvarint(), Limit: d.Varint()}
			// Limits are cumulative tuple counts; a negative one can only
			// be crafted. It would be ignored by onCredit anyway, but
			// reject the frame so hostile grants never reach the engine.
			if d.Err() == nil && c.Limit < 0 {
				d.Fail("negative credit limit")
			}
			return c
		})

	wire.Register(tagAggState, &AggState{},
		func(e *wire.Encoder, m env.Message) { encodeAggState(e, m.(*AggState)) },
		func(d *wire.Decoder) env.Message { return decodeAggState(d) })

	wire.Register(tagBloomFilter, &bloom.Filter{},
		func(e *wire.Encoder, m env.Message) {
			f := m.(*bloom.Filter)
			e.Int(f.K)
			e.Len(len(f.Bits))
			for _, w := range f.Bits {
				e.Fixed64(w)
			}
		},
		func(d *wire.Decoder) env.Message {
			f := &bloom.Filter{K: d.Int()}
			// Validated plans keep K within [1, 64] (Plan.Validate clamps
			// BloomHashes) and bloom.New never allocates an empty bit
			// array; a frame claiming otherwise would divide by zero (or
			// spin for 2^60 hashes) inside Test/Add on the event loop.
			if d.Err() == nil && (f.K < 1 || f.K > 64) {
				d.Fail("bloom filter hash count out of range")
				return f
			}
			// Fixed 8-byte words: LenMin bounds the allocation exactly.
			if n := d.LenMin(8); n > 0 {
				f.Bits = make([]uint64, n)
				for i := range f.Bits {
					f.Bits[i] = d.Fixed64()
				}
			}
			if len(f.Bits) == 0 && d.Err() == nil {
				d.Fail("empty bloom filter")
			}
			return f
		})

	registerExprCodecs()
}

func encodeAggState(e *wire.Encoder, s *AggState) {
	e.Varint(s.Count)
	e.Varint(s.SumI)
	e.Float64(s.SumF)
	e.Bool(s.Float)
	e.Value(s.MinV)
	e.Value(s.MaxV)
	e.Bool(s.Seen)
}

func decodeAggState(d *wire.Decoder) *AggState {
	return &AggState{
		Count: d.Varint(),
		SumI:  d.Varint(),
		SumF:  d.Float64(),
		Float: d.Bool(),
		MinV:  d.Value(),
		MaxV:  d.Value(),
		Seen:  d.Bool(),
	}
}

func encodePlan(e *wire.Encoder, m env.Message) {
	p := m.(*Plan)
	e.Len(len(p.Tables))
	for _, tr := range p.Tables {
		e.String(tr.NS)
		e.Message(tr.Filter)
		encodeInts(e, tr.Project)
		encodeInts(e, tr.JoinCols)
		e.Int(tr.RIDCol)
		e.Message(tr.IndexScan)
	}
	e.Int(int(p.Strategy))
	e.Message(p.PostFilter)
	encodeInts(e, p.GroupBy)
	e.Len(len(p.Aggs))
	for _, a := range p.Aggs {
		e.Int(int(a.Kind))
		e.Int(a.Col)
	}
	e.Message(p.Having)
	e.Len(len(p.Output))
	for _, x := range p.Output {
		e.Message(x)
	}
	e.Duration(p.TTL)
	e.Duration(p.BloomWait)
	e.Duration(p.AggWait)
	e.Int(p.BloomBits)
	e.Int(p.BloomHashes)
	e.Int(p.ComputeNodes)
	e.Int(p.AggFanout)
	e.Bool(p.Continuous)
	e.Duration(p.Every)
	e.Int(p.Windows)
	e.Bool(p.AutoStrategy)
	e.Bool(p.AutoAccess)
	e.Bool(p.Trace)
}

func decodePlan(d *wire.Decoder) env.Message {
	p := &Plan{}
	if n := d.Len(); n > 0 {
		p.Tables = make([]TableRef, 0, wire.SliceCap(n))
		for i := 0; i < n && d.Err() == nil; i++ {
			tr := TableRef{NS: d.String()}
			tr.Filter = exprField(d)
			tr.Project = decodeInts(d)
			tr.JoinCols = decodeInts(d)
			tr.RIDCol = d.Int()
			tr.IndexScan = indexScanField(d)
			p.Tables = append(p.Tables, tr)
		}
	}
	p.Strategy = Strategy(d.Int())
	p.PostFilter = exprField(d)
	p.GroupBy = decodeInts(d)
	if n := d.Len(); n > 0 {
		p.Aggs = make([]Aggregate, 0, wire.SliceCap(n))
		for i := 0; i < n && d.Err() == nil; i++ {
			p.Aggs = append(p.Aggs, Aggregate{Kind: AggKind(d.Int()), Col: d.Int()})
		}
	}
	p.Having = exprField(d)
	if n := d.Len(); n > 0 {
		p.Output = make([]Expr, 0, wire.SliceCap(n))
		for i := 0; i < n && d.Err() == nil; i++ {
			p.Output = append(p.Output, exprReq(d))
		}
	}
	p.TTL = d.Duration()
	p.BloomWait = d.Duration()
	p.AggWait = d.Duration()
	p.BloomBits = d.Int()
	p.BloomHashes = d.Int()
	p.ComputeNodes = d.Int()
	p.AggFanout = d.Int()
	p.Continuous = d.Bool()
	p.Every = d.Duration()
	p.Windows = d.Int()
	p.AutoStrategy = d.Bool()
	p.AutoAccess = d.Bool()
	p.Trace = d.Bool()
	return p
}

func registerExprCodecs() {
	wire.Register(tagExprCol, &Col{},
		func(e *wire.Encoder, m env.Message) { e.Int(m.(*Col).Idx) },
		func(d *wire.Decoder) env.Message { return &Col{Idx: d.Int()} })

	wire.Register(tagExprConst, &Const{},
		func(e *wire.Encoder, m env.Message) { e.Value(m.(*Const).V) },
		func(d *wire.Decoder) env.Message { return &Const{V: d.Value()} })

	wire.Register(tagExprCmp, &Cmp{},
		func(e *wire.Encoder, m env.Message) {
			c := m.(*Cmp)
			e.Int(int(c.Op))
			e.Message(c.L)
			e.Message(c.R)
		},
		func(d *wire.Decoder) env.Message {
			return &Cmp{Op: CmpOp(d.Int()), L: exprReq(d), R: exprReq(d)}
		})

	wire.Register(tagExprAnd, &And{},
		func(e *wire.Encoder, m env.Message) {
			a := m.(*And)
			e.Message(a.L)
			e.Message(a.R)
		},
		func(d *wire.Decoder) env.Message {
			return &And{L: exprReq(d), R: exprReq(d)}
		})

	wire.Register(tagExprOr, &Or{},
		func(e *wire.Encoder, m env.Message) {
			o := m.(*Or)
			e.Message(o.L)
			e.Message(o.R)
		},
		func(d *wire.Decoder) env.Message {
			return &Or{L: exprReq(d), R: exprReq(d)}
		})

	wire.Register(tagExprNot, &Not{},
		func(e *wire.Encoder, m env.Message) { e.Message(m.(*Not).E) },
		func(d *wire.Decoder) env.Message { return &Not{E: exprReq(d)} })

	wire.Register(tagExprArith, &Arith{},
		func(e *wire.Encoder, m env.Message) {
			a := m.(*Arith)
			e.Int(int(a.Op))
			e.Message(a.L)
			e.Message(a.R)
		},
		func(d *wire.Decoder) env.Message {
			return &Arith{Op: ArithOp(d.Int()), L: exprReq(d), R: exprReq(d)}
		})

	wire.Register(tagExprCall, &Call{},
		func(e *wire.Encoder, m env.Message) {
			c := m.(*Call)
			e.String(c.Name)
			e.Len(len(c.Args))
			for _, a := range c.Args {
				e.Message(a)
			}
		},
		func(d *wire.Decoder) env.Message {
			c := &Call{Name: d.String()}
			if n := d.Len(); n > 0 {
				c.Args = make([]Expr, 0, wire.SliceCap(n))
				for i := 0; i < n && d.Err() == nil; i++ {
					c.Args = append(c.Args, exprReq(d))
				}
			}
			return c
		})
}

func encodeInts(e *wire.Encoder, xs []int) {
	e.Len(len(xs))
	for _, x := range xs {
		e.Int(x)
	}
}

func decodeInts(d *wire.Decoder) []int {
	n := d.Len()
	if n == 0 {
		return nil
	}
	xs := make([]int, 0, wire.SliceCap(n))
	for i := 0; i < n && d.Err() == nil; i++ {
		xs = append(xs, d.Int())
	}
	return xs
}

// sideField reads a join-side index, rejecting frames whose side is not
// 0 or 1 — executor code indexes plan.Tables (and fixed-size arrays)
// with it.
func sideField(d *wire.Decoder) int {
	s := d.Int()
	if d.Err() == nil && (s < 0 || s > 1) {
		d.Fail("join side out of range")
	}
	return s
}

// exprField decodes a nested expression written with Encoder.Message;
// nil stays nil (optional filters: TableRef.Filter, PostFilter, Having).
func exprField(d *wire.Decoder) Expr {
	m := d.Message()
	if m == nil {
		return nil
	}
	x, ok := m.(Expr)
	if !ok {
		d.Fail("message is not an expression")
		return nil
	}
	return x
}

// exprReq is exprField for positions the evaluator dereferences
// unconditionally (operator children, output expressions): a crafted
// nil must fail the frame, not crash Eval on the event loop.
func exprReq(d *wire.Decoder) Expr {
	x := exprField(d)
	if x == nil && d.Err() == nil {
		d.Fail("missing required expression")
	}
	return x
}

// decodeTupleInto decodes one nested tuple (written with
// Encoder.Message, as inside a resultMsg) into t, appending its column
// values to the shared slab vals and returning the extended slab.
// t.Vals is a capacity-trimmed sub-slice of the slab, so a later append
// that grows the slab cannot clobber an earlier tuple's columns.
func decodeTupleInto(d *wire.Decoder, t *Tuple, vals []Value) []Value {
	if tag := d.Byte(); tag != tagTuple {
		if d.Err() == nil {
			if tag == 0 {
				d.Fail("missing required tuple")
			} else {
				d.Fail("message is not a tuple")
			}
		}
		return vals
	}
	t.Rel = d.String()
	if n := d.Len(); n > 0 {
		start := len(vals)
		for i := 0; i < n && d.Err() == nil; i++ {
			vals = append(vals, d.Value())
		}
		t.Vals = vals[start:len(vals):len(vals)]
	}
	t.Pad = d.Int()
	if d.Err() == nil && t.Pad < 0 {
		d.Fail("negative tuple pad")
	}
	return vals
}

func tupleField(d *wire.Decoder) *Tuple {
	m := d.Message()
	if m == nil {
		if d.Err() == nil {
			d.Fail("missing required tuple")
		}
		return nil
	}
	t, ok := m.(*Tuple)
	if !ok {
		d.Fail("message is not a tuple")
		return nil
	}
	return t
}

func filterField(d *wire.Decoder) *bloom.Filter {
	m := d.Message()
	if m == nil {
		if d.Err() == nil {
			d.Fail("missing required bloom filter")
		}
		return nil
	}
	f, ok := m.(*bloom.Filter)
	if !ok {
		d.Fail("message is not a bloom filter")
		return nil
	}
	return f
}

// spanField decodes a nested trace span written with Encoder.Message.
// The span codec (package trace) already rejects invalid stages and
// negative durations; here only the type is checked.
func spanField(d *wire.Decoder) *trace.Span {
	m := d.Message()
	if m == nil {
		if d.Err() == nil {
			d.Fail("missing required trace span")
		}
		return nil
	}
	s, ok := m.(*trace.Span)
	if !ok {
		d.Fail("message is not a trace span")
		return nil
	}
	return s
}

// indexScanField decodes an optional nested IndexRangeScan (nil stays
// nil — most tables have no index access path).
func indexScanField(d *wire.Decoder) *IndexRangeScan {
	m := d.Message()
	if m == nil {
		return nil
	}
	s, ok := m.(*IndexRangeScan)
	if !ok {
		d.Fail("message is not an index scan")
		return nil
	}
	return s
}

func planField(d *wire.Decoder) *Plan {
	m := d.Message()
	if m == nil {
		if d.Err() == nil {
			d.Fail("missing required plan")
		}
		return nil
	}
	p, ok := m.(*Plan)
	if !ok {
		d.Fail("message is not a plan")
		return nil
	}
	return p
}
