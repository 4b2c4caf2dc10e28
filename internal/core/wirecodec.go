package core

// Wire descriptions of the query processor's message vocabulary (types
// in messages.go, tuple.go, expr.go, plan.go, and agg.go): one field
// function per type, which package wire runs as the encoder, the decoder
// and WireSize().

import (
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

func init() {
	wire.Register(tagQueryMsg, func(c *wire.Codec, q *queryMsg) {
		c.Uvarint(&q.ID)
		c.Addr(&q.Initiator)
		c.Bool(&q.Trace)
		wire.Required(c, &q.Plan)
	})

	wire.RegisterAlloc(tagResultMsg, getResultMsg, func(c *wire.Codec, r *resultMsg) {
		c.Uvarint(&r.ID)
		c.Int(&r.Window)
		tuplesField(c, r)
		// Spans travel as nested messages but are held by value. The span
		// description (package trace) already rejects invalid stages and
		// negative durations.
		wire.Slice(c, &r.Spans, 1, func(c *wire.Codec, s *trace.Span) {
			p := s
			wire.Required(c, &p)
			if c.Decoding() {
				*s = *p
			}
		})
		c.Uvarint(&r.SpanDrops)
	})

	wire.Register(tagSideTuple, func(c *wire.Codec, s *sideTuple) {
		sideField(c, &s.Side)
		wire.Required(c, &s.T)
	})

	wire.Register(tagMiniTuple, func(c *wire.Codec, t *miniTuple) {
		sideField(c, &t.Side)
		c.String(&t.RID)
		c.String(&t.Key)
	})

	wire.Register(tagBloomPut, func(c *wire.Codec, b *bloomPut) {
		sideField(c, &b.Side)
		wire.Required(c, &b.F)
	})

	wire.Register(tagBloomDist, func(c *wire.Codec, b *bloomDist) {
		c.Uvarint(&b.ID)
		sideField(c, &b.Side)
		wire.Required(c, &b.F)
	})

	wire.Register(tagPartialAgg, func(c *wire.Codec, p *partialAgg) {
		c.Int(&p.Window)
		wire.Slice(c, &p.Group, 1, (*wire.Codec).Value)
		wire.Slice(c, &p.States, 1, func(c *wire.Codec, s **AggState) {
			if c.Decoding() {
				*s = new(AggState)
			}
			aggStateFields(c, *s)
		})
	})

	wire.Register(tagTuple, func(c *wire.Codec, t *Tuple) { tupleFields(c, t, nil) })

	wire.Register(tagPlan, planFields)

	wire.Register(tagIndexScan, func(c *wire.Codec, s *IndexRangeScan) {
		c.String(&s.Index)
		// Encoded keys are high-entropy: fixed words beat varints.
		c.Fixed64(&s.Lo)
		c.Fixed64(&s.Hi)
	})

	wire.Register(tagCancelMsg, func(c *wire.Codec, m *cancelMsg) { c.Uvarint(&m.ID) })

	wire.Register(tagCreditMsg, func(c *wire.Codec, m *creditMsg) {
		c.Uvarint(&m.ID)
		c.Varint(&m.Limit)
		// Limits are cumulative tuple counts; a negative one can only
		// be crafted. It would be ignored by onCredit anyway, but
		// reject the frame so hostile grants never reach the engine.
		if c.Decoding() && m.Limit < 0 {
			c.Fail("negative credit limit")
		}
	})

	wire.Register(tagAggState, aggStateFields)

	wire.Register(tagExprCol, func(c *wire.Codec, x *Col) { c.Int(&x.Idx) })

	wire.Register(tagExprConst, func(c *wire.Codec, x *Const) { c.Value(&x.V) })

	// Operator children and output expressions are positions the
	// evaluator dereferences unconditionally: Required, so a crafted nil
	// fails the frame instead of crashing Eval on the event loop.
	wire.Register(tagExprCmp, func(c *wire.Codec, x *Cmp) {
		wire.Signed(c, &x.Op)
		wire.Required(c, &x.L)
		wire.Required(c, &x.R)
	})

	wire.Register(tagExprAnd, func(c *wire.Codec, x *And) {
		wire.Required(c, &x.L)
		wire.Required(c, &x.R)
	})

	wire.Register(tagExprOr, func(c *wire.Codec, x *Or) {
		wire.Required(c, &x.L)
		wire.Required(c, &x.R)
	})

	wire.Register(tagExprNot, func(c *wire.Codec, x *Not) { wire.Required(c, &x.E) })

	wire.Register(tagExprArith, func(c *wire.Codec, x *Arith) {
		wire.Signed(c, &x.Op)
		wire.Required(c, &x.L)
		wire.Required(c, &x.R)
	})

	wire.Register(tagExprCall, func(c *wire.Codec, x *Call) {
		c.String(&x.Name)
		wire.Slice(c, &x.Args, 1, wire.Required[Expr])
	})
}

// tupleFields is Tuple's description. The column loop is written out
// (not wire.Slice) for two reasons: it is the hottest loop of every mode,
// and resultMsg's decoder passes a non-nil slab — the columns are then
// appended to that shared block and t.Vals is a capacity-trimmed
// sub-slice of it, so a later append that grows the slab cannot clobber
// an earlier tuple's columns.
func tupleFields(c *wire.Codec, t *Tuple, slab *[]Value) {
	c.String(&t.Rel)
	n := c.Len(len(t.Vals), 1)
	if !c.Decoding() {
		for i := range t.Vals {
			c.Value(&t.Vals[i])
		}
	} else if n > 0 {
		var vals []Value
		if slab != nil {
			vals = *slab
		} else {
			vals = make([]Value, 0, wire.SliceCap(n))
		}
		start := len(vals)
		for i := 0; i < n && c.Err() == nil; i++ {
			vals = append(vals, nil)
			c.Value(&vals[start+i])
		}
		t.Vals = vals[start:len(vals):len(vals)]
		if slab != nil {
			*slab = vals
		}
	}
	c.Pad(&t.Pad)
}

// tuplesField is resultMsg.Tuples, the highest-volume field in the
// system: a list of tagged tuples, as wire.Slice over wire.Required would
// code it, but written out so that no mode pays a registry lookup per
// tuple, and so that decoding fills one []Tuple block and one shared
// []Value block per frame instead of two allocations per tuple. Pointers
// into the tuple block are taken only after it is fully built — append
// may move it while it grows.
func tuplesField(c *wire.Codec, r *resultMsg) {
	n := c.Len(len(r.Tuples), 1)
	tag := tagTuple
	if !c.Decoding() {
		for _, t := range r.Tuples {
			c.Byte(&tag)
			tupleFields(c, t, nil)
		}
		return
	}
	if n == 0 {
		return
	}
	slab := make([]Tuple, 0, wire.SliceCap(n))
	vals := make([]Value, 0, wire.SliceCap(4*n))
	for i := 0; i < n && c.Err() == nil; i++ {
		if c.Byte(&tag); tag != tagTuple {
			c.Fail("result frame entry is not a tuple")
			return
		}
		var t Tuple
		tupleFields(c, &t, &vals)
		slab = append(slab, t)
	}
	for i := range slab {
		r.Tuples = append(r.Tuples, &slab[i])
	}
}

func aggStateFields(c *wire.Codec, s *AggState) {
	c.Varint(&s.Count)
	c.Varint(&s.SumI)
	c.Float64(&s.SumF)
	c.Bool(&s.Float)
	c.Value(&s.MinV)
	c.Value(&s.MaxV)
	c.Bool(&s.Seen)
}

func planFields(c *wire.Codec, p *Plan) {
	wire.Slice(c, &p.Tables, 1, func(c *wire.Codec, tr *TableRef) {
		c.String(&tr.NS)
		wire.Optional(c, &tr.Filter)
		wire.Slice(c, &tr.Project, 1, (*wire.Codec).Int)
		wire.Slice(c, &tr.JoinCols, 1, (*wire.Codec).Int)
		c.Int(&tr.RIDCol)
		wire.Optional(c, &tr.IndexScan) // most tables have no index access path
	})
	wire.Signed(c, &p.Strategy)
	wire.Optional(c, &p.PostFilter)
	wire.Slice(c, &p.GroupBy, 1, (*wire.Codec).Int)
	wire.Slice(c, &p.Aggs, 1, func(c *wire.Codec, a *Aggregate) {
		wire.Signed(c, &a.Kind)
		c.Int(&a.Col)
	})
	wire.Optional(c, &p.Having)
	wire.Slice(c, &p.Output, 1, wire.Required[Expr])
	wire.Signed(c, &p.TTL)
	wire.Signed(c, &p.BloomWait)
	wire.Signed(c, &p.AggWait)
	c.Int(&p.BloomBits)
	c.Int(&p.BloomHashes)
	c.Int(&p.ComputeNodes)
	c.Int(&p.AggFanout)
	c.Bool(&p.Continuous)
	wire.Signed(c, &p.Every)
	c.Int(&p.Windows)
	c.Bool(&p.AutoStrategy)
	c.Bool(&p.AutoAccess)
	c.Bool(&p.Trace)
}

// sideField is a join-side index. Decoding rejects a side that is not 0
// or 1 — executor code indexes plan.Tables (and fixed-size arrays) with
// it.
func sideField(c *wire.Codec, s *int) {
	c.Int(s)
	if c.Decoding() && (*s < 0 || *s > 1) {
		c.Fail("join side out of range")
	}
}
