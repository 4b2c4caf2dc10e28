package experiments

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"pier/internal/chaos"
	"pier/internal/core"
	"pier/internal/wire"
	"pier/internal/workload"
)

// TestPlannedShapes holds every query the experiments, the chaos
// harness and the workload run to the plan it was written as by hand
// before those queries became SQL text. Each builder's plan must equal
// its hand-built reference field for field, both validated, with the
// experiment parameters the SQL does not carry (TTL, Bloom geometry,
// fan-out) set as the builder sets them. Equal plans are equal
// queries on the wire, so the figures and the chaos fingerprints
// cannot move.
func TestPlannedShapes(t *testing.T) {
	gt := func(col int, c int64) core.Expr {
		return &core.Cmp{Op: core.GT, L: &core.Col{Idx: col}, R: &core.Const{V: c}}
	}
	cols := func(idx ...int) []core.Expr {
		out := make([]core.Expr, len(idx))
		for i, c := range idx {
			out[i] = &core.Col{Idx: c}
		}
		return out
	}
	// The §5.1 join: SELECT R.pkey, S.pkey FROM R, S WHERE R.num1 =
	// S.pkey AND R.num2 > c1 AND S.num2 > c2 AND f(R.num3, S.num3) > c3.
	// The joined row is R's four columns, then S's three.
	const jRPkey, jRNum3, jSPkey, jSNum3 = 0, 3, 4, 6
	paperJoin := func(s core.Strategy, c1, c2, c3 int64) *core.Plan {
		return &core.Plan{
			Tables: []core.TableRef{
				{NS: "R", Filter: gt(workload.RNum2, c1), JoinCols: []int{workload.RNum1}, RIDCol: workload.RPkey},
				{NS: "S", Filter: gt(workload.SNum2, c2), JoinCols: []int{workload.SPkey}, RIDCol: workload.SPkey},
			},
			Strategy: s,
			PostFilter: &core.Cmp{
				Op: core.GT,
				L:  &core.Call{Name: "f", Args: cols(jRNum3, jSNum3)},
				R:  &core.Const{V: c3},
			},
			Output: cols(jRPkey, jSPkey),
		}
	}
	// SELECT pkey, num2 FROM S WHERE num2 > c.
	sScan := func(c int64) *core.Plan {
		return &core.Plan{
			Tables: []core.TableRef{{NS: "S", Filter: gt(workload.SNum2, c), RIDCol: workload.SPkey}},
			Output: cols(workload.SPkey, workload.SNum2),
		}
	}
	with := func(p *core.Plan, set func(*core.Plan)) *core.Plan { set(p); return p }

	type shape struct {
		name      string
		got, want *core.Plan
	}
	var cases []shape
	for _, sels := range [][3]float64{{0.5, 0.5, 0.5}, {0.3, 0.7, 0.5}, {1, 1, 1}, {0, 0.1, 0.9}} {
		c1, c2, c3 := workload.Constants(sels[0], sels[1], sels[2])
		for s := core.SymmetricHash; s <= core.BloomJoin; s++ {
			cases = append(cases, shape{fmt.Sprintf("JoinPlan/%v/%v", s, sels),
				workload.JoinPlan(s, c1, c2, c3), paperJoin(s, c1, c2, c3)})
		}
	}

	const window = 40 * time.Second
	for _, sel := range []float64{0.3, 0.5, 0.7} {
		_, c2, _ := workload.Constants(0.5, sel, 0.5)
		spec := func(k chaos.QueryKind, s core.Strategy) *core.Plan {
			return chaos.QuerySpec{Kind: k, Strategy: s, SelR: 0.5, SelS: sel, SelF: 0.5}.Plan(window)
		}
		for s := core.SymmetricHash; s <= core.BloomJoin; s++ {
			c1, _, c3 := workload.Constants(0.5, sel, 0.5)
			cases = append(cases, shape{fmt.Sprintf("chaos/join/%v/%v", s, sel), spec(chaos.QJoin, s),
				with(paperJoin(s, c1, c2, c3), func(p *core.Plan) {
					p.BloomBits, p.BloomWait, p.TTL = 1<<14, 5*time.Second, window
				})})
		}
		cases = append(cases,
			shape{fmt.Sprintf("chaos/select/%v", sel), spec(chaos.QSelect, 0),
				with(sScan(c2), func(p *core.Plan) { p.TTL = window })},
			shape{fmt.Sprintf("chaos/aggregate/%v", sel), spec(chaos.QAggregate, 0), &core.Plan{
				Tables:  []core.TableRef{{NS: "S", Filter: gt(workload.SNum2, c2), RIDCol: workload.SPkey}},
				GroupBy: []int{workload.SNum3},
				Aggs:    []core.Aggregate{{Kind: core.Count, Col: -1}, {Kind: core.Sum, Col: workload.SNum2}},
				AggWait: 8 * time.Second,
				TTL:     window,
			}},
			shape{fmt.Sprintf("chaos/range/%v", sel), spec(chaos.QRange, 0), with(sScan(c2), func(p *core.Plan) {
				p.Tables[0].IndexScan = &core.IndexRangeScan{
					Index: chaos.RangeIndexName, Lo: wire.OrderedKey(c2), Hi: wire.OrderedMax,
				}
				p.TTL = window
			})},
		)
	}
	cases = append(cases,
		shape{"chaos/continuous", chaos.QuerySpec{Kind: chaos.QContinuous}.Plan(window), &core.Plan{
			Tables:     []core.TableRef{{NS: "S", RIDCol: workload.SPkey}},
			Aggs:       []core.Aggregate{{Kind: core.Count, Col: -1}},
			Continuous: true,
			Every:      10 * time.Second,
			AggWait:    5 * time.Second,
			TTL:        window,
		}},
		shape{"chaos/flood", chaos.QuerySpec{Kind: chaos.QFlood}.Plan(window), &core.Plan{
			Tables: []core.TableRef{{NS: chaos.FloodNS, RIDCol: 0}},
			Output: cols(0),
			TTL:    window,
		}},
	)

	for _, sel := range []float64{0.5, 0.9} {
		c, _, _ := workload.Constants(sel, sel, 0.5)
		cases = append(cases, shape{fmt.Sprintf("adaptive/joinOnCol1/%v", sel), joinOnCol1(c), &core.Plan{
			Tables: []core.TableRef{
				{NS: "R", Filter: gt(2, c), JoinCols: []int{1}, RIDCol: 0},
				{NS: "S", Filter: gt(2, c), JoinCols: []int{1}, RIDCol: 0},
			},
			Output: cols(0, 3),
		}})
		cases = append(cases, shape{fmt.Sprintf("incast/%v", sel), incastPlan(c),
			with(sScan(c), func(p *core.Plan) { p.TTL = 10 * time.Minute })})
	}
	for _, fanout := range []int{0, 4, 16} {
		cases = append(cases, shape{fmt.Sprintf("hieragg/%d", fanout), hierAggPlan(fanout), &core.Plan{
			Tables:    []core.TableRef{{NS: "m"}},
			GroupBy:   []int{0},
			Aggs:      []core.Aggregate{{Kind: core.Count, Col: -1}, {Kind: core.Sum, Col: 1}},
			AggWait:   10 * time.Second,
			AggFanout: fanout,
		}})
	}
	cases = append(cases, shape{"simscale", simScalePlan(),
		&core.Plan{Tables: []core.TableRef{{NS: "u"}}, TTL: 2 * time.Minute}})

	for _, tc := range cases {
		for _, p := range []*core.Plan{tc.got, tc.want} {
			if err := p.Validate(); err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
		}
		if !reflect.DeepEqual(tc.got, tc.want) {
			t.Errorf("%s: the builder's plan differs from the hand-built one\n got %s\nwant %s",
				tc.name, planString(tc.got), planString(tc.want))
		}
	}
}

// planString spells a plan out, expressions included, for a failure
// message.
func planString(p *core.Plan) string {
	s := fmt.Sprintf("%+v", *p)
	for i, tr := range p.Tables {
		s += fmt.Sprintf("\n  table %d %+v filter=%v index=%+v", i, tr, tr.Filter, tr.IndexScan)
	}
	return s + fmt.Sprintf("\n  post=%v output=%v", p.PostFilter, p.Output)
}
