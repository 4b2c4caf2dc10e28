package pier

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"

	"pier/internal/core"
	"pier/internal/topology"
	"pier/internal/wire"
)

// The tests here hold the executor's one row pipeline to account: every
// access path (the multicast scan and the initiator's index walk) must
// give the same answer, and that answer must be the one computed
// straight from the loaded rows.

// pipeRow is row i of the indexed table T(pkey, num, grp) the tests
// load: pkey i, num scattered over [0, 1000), grp i mod 7.
func pipeRow(i int) []Value {
	return []Value{int64(i), int64(i * 7919 % 1000), int64(i % 7)}
}

var pipeSchema = SQLTable{
	Name: "T", Cols: []string{"pkey", "num", "grp"}, Key: "pkey",
	Indexes: []SQLIndex{{Name: "t_num", Col: "num"}},
}

// newIndexedSim publishes rows rows of T on an n-node sim with a PHT
// index on num, and runs until the trie has settled.
func newIndexedSim(t *testing.T, n, rows int, seed int64) *SimNetwork {
	t.Helper()
	opts := DefaultOptions()
	opts.Index.Interval = 10 * time.Second
	sn := NewSimNetwork(n, topology.NewFullMesh(), seed, opts)
	sn.Nodes[0].RegisterTable(pipeSchema, time.Hour)
	if err := sn.Nodes[0].CreateIndex(pipeSchema, "t_num", "num", time.Hour); err != nil {
		t.Fatalf("CreateIndex: %v", err)
	}
	sn.RunFor(30 * time.Second)
	for i := 0; i < rows; i++ {
		sn.Nodes[i%n].Publish("T", fmt.Sprint(i), int64(i), &Tuple{Rel: "T", Vals: pipeRow(i)}, time.Hour)
	}
	sn.RunFor(2 * time.Minute) // place the entries, let the trie split
	return sn
}

// numRange is the plan's access path over T: the range lo <= num <= hi
// as the exact Filter, and, when indexed, the same range as a PHT scan.
func numRange(lo, hi int64, indexed bool) TableRef {
	col := func() Expr { return &core.Col{Idx: 1} }
	tr := TableRef{NS: "T", RIDCol: 0, Filter: &core.And{
		L: &core.Cmp{Op: core.GE, L: col(), R: &core.Const{V: lo}},
		R: &core.Cmp{Op: core.LE, L: col(), R: &core.Const{V: hi}},
	}}
	if indexed {
		tr.IndexScan = &core.IndexRangeScan{Index: "t_num", Lo: wire.OrderedKey(lo), Hi: wire.OrderedKey(hi)}
	}
	return tr
}

// answer runs a plan from node i to completion and returns its result
// rows, rendered and sorted.
func answer(t *testing.T, sn *SimNetwork, i int, p *Plan) []string {
	t.Helper()
	var got []string
	id, err := sn.Nodes[i].Query(p, func(tu *core.Tuple, _ int) { got = append(got, renderRow(tu.Vals)) })
	if err != nil {
		t.Fatal(err)
	}
	sn.RunFor(p.AggWait + 10*time.Second)
	sn.Nodes[i].Cancel(id)
	slices.Sort(got)
	return got
}

func renderRow(vals []Value) string {
	parts := make([]string, len(vals))
	for i, v := range vals {
		parts[i] = core.ValueString(v)
	}
	return strings.Join(parts, ",")
}

// TestPostFilterAppliesBeforeGrouping: a single-table aggregate counts
// only the rows PostFilter keeps, on the multicast path and on the
// index path alike, just as a join's aggregate does.
func TestPostFilterAppliesBeforeGrouping(t *testing.T) {
	sn := newIndexedSim(t, 8, 100, 41)
	post := &core.Cmp{Op: core.LT, L: &core.Col{Idx: 0}, R: &core.Const{V: int64(10)}}
	for _, indexed := range []bool{false, true} {
		rows := answer(t, sn, 1, &Plan{
			Tables: []TableRef{numRange(0, 999, indexed)}, PostFilter: post,
			TTL: time.Minute, AggWait: 5 * time.Second,
		})
		if len(rows) != 10 {
			t.Fatalf("indexed=%v: plain plan returned %d rows, want 10", indexed, len(rows))
		}
		count := answer(t, sn, 1, &Plan{
			Tables: []TableRef{numRange(0, 999, indexed)}, PostFilter: post,
			Aggs: []Aggregate{{Kind: Count, Col: -1}},
			TTL:  time.Minute, AggWait: 5 * time.Second,
		})
		if want := []string{"10"}; !slices.Equal(count, want) {
			t.Fatalf("indexed=%v: COUNT(*) under PostFilter = %v, want %v", indexed, count, want)
		}
	}
}

// pipePlan is one randomly drawn single-table plan over T, held as the
// parameters both the engine plan and the reference answer derive from.
type pipePlan struct {
	lo, hi  int64
	postMod int64 // PostFilter pkey % postMod != 0; 0 for none
	agg     bool  // COUNT(*), SUM, MIN, MAX, AVG of num
	groupBy bool  // GROUP BY grp (aggregate plans)
	having  int64 // HAVING COUNT(*) > having; -1 for none
	output  bool  // a reordering Output expression list
}

func drawPipePlan(r *rand.Rand) pipePlan {
	pp := pipePlan{lo: int64(r.Intn(1000)), having: -1}
	pp.hi = pp.lo + int64(r.Intn(1000-int(pp.lo)))
	if r.Intn(2) == 0 {
		pp.postMod = int64(2 + r.Intn(3))
	}
	pp.agg = r.Intn(2) == 0
	if pp.agg {
		pp.groupBy = r.Intn(3) > 0
		if r.Intn(2) == 0 {
			pp.having = int64(r.Intn(4))
		}
	}
	pp.output = r.Intn(2) == 0
	return pp
}

func (pp pipePlan) plan(indexed bool) *Plan {
	col := func(i int) Expr { return &core.Col{Idx: i} }
	p := &Plan{Tables: []TableRef{numRange(pp.lo, pp.hi, indexed)}, TTL: time.Minute, AggWait: 5 * time.Second}
	if pp.postMod > 0 {
		p.PostFilter = &core.Cmp{Op: core.NE,
			L: &core.Arith{Op: core.Mod, L: col(0), R: &core.Const{V: pp.postMod}}, R: &core.Const{V: int64(0)}}
	}
	if !pp.agg {
		if pp.output {
			p.Output = []Expr{&core.Arith{Op: core.Add, L: col(1), R: &core.Const{V: int64(1)}}, col(0)}
		}
		return p
	}
	g := 0
	if pp.groupBy {
		p.GroupBy = []int{2}
		g = 1
	}
	p.Aggs = []Aggregate{{Kind: Count, Col: -1}, {Kind: Sum, Col: 1}, {Kind: Min, Col: 1}, {Kind: Max, Col: 1}, {Kind: Avg, Col: 1}}
	if pp.having >= 0 {
		p.Having = &core.Cmp{Op: core.GT, L: col(g), R: &core.Const{V: pp.having}}
	}
	if pp.output {
		p.Output = []Expr{col(g + 1), col(g)} // SUM, COUNT
	}
	return p
}

// reference computes the plan's answer from the loaded rows directly,
// with no engine code but ValueString's rendering.
func (pp pipePlan) reference(rows int) []string {
	type group struct{ count, sum, min, max int64 }
	var out []string
	groups := map[int64]*group{}
	var order []int64
	for i := 0; i < rows; i++ {
		pkey, num, grp := int64(i), int64(i*7919%1000), int64(i%7)
		if num < pp.lo || num > pp.hi || pp.postMod > 0 && pkey%pp.postMod == 0 {
			continue
		}
		if !pp.agg {
			if pp.output {
				out = append(out, renderRow([]Value{num + 1, pkey}))
			} else {
				out = append(out, renderRow([]Value{pkey, num, grp}))
			}
			continue
		}
		if !pp.groupBy {
			grp = 0
		}
		g := groups[grp]
		if g == nil {
			g = &group{min: num, max: num}
			groups[grp] = g
			order = append(order, grp)
		}
		g.count++
		g.sum += num
		g.min, g.max = min(g.min, num), max(g.max, num)
	}
	for _, grp := range order {
		g := groups[grp]
		if g.count <= pp.having {
			continue
		}
		row := []Value{g.count, g.sum, g.min, g.max, float64(g.sum) / float64(g.count)}
		if pp.groupBy {
			row = append([]Value{grp}, row...)
		}
		if pp.output {
			row = []Value{g.sum, g.count}
		}
		out = append(out, renderRow(row))
	}
	slices.Sort(out)
	return out
}

// TestIndexPathMatchesMulticast is a differential test of the two
// access paths of a single-table plan: seeded random range plans, with
// and without GROUP BY, HAVING, Output and PostFilter, run once through
// the PHT index walk and once as a multicast scan, must both return
// the answer computed straight from the loaded rows.
func TestIndexPathMatchesMulticast(t *testing.T) {
	const rows = 120
	sn := newIndexedSim(t, 16, rows, 43)
	r := rand.New(rand.NewSource(43))
	for k := 0; k < 16; k++ {
		pp := drawPipePlan(r)
		want := pp.reference(rows)
		from := r.Intn(len(sn.Nodes))
		viaIndex := answer(t, sn, from, pp.plan(true))
		viaScan := answer(t, sn, from, pp.plan(false))
		if !slices.Equal(viaIndex, want) || !slices.Equal(viaScan, want) {
			t.Fatalf("plan %d %+v:\n index     %v\n multicast %v\n reference %v", k, pp, viaIndex, viaScan, want)
		}
	}
}

// TestCancelReleasesExecutors: a cancelled executor leaves nothing
// scheduled behind. Each of the query's executors used to keep its TTL
// timer, and through it the executor itself, until the TTL.
func TestCancelReleasesExecutors(t *testing.T) {
	sn := NewSimNetwork(16, topology.NewFullMesh(), 44, DefaultOptions())
	for i := 0; i < 50; i++ {
		sn.Load("T", fmt.Sprint(i), int64(i), &Tuple{Rel: "T", Vals: pipeRow(i)}, 0)
	}
	sn.RunFor(time.Minute) // past the nodes' start-up timers
	before := sn.Net.Pending()
	var ids []uint64
	for k := 0; k < 5; k++ {
		id, err := sn.Nodes[k].Query(&Plan{Tables: []TableRef{{NS: "T"}}, TTL: 10 * time.Minute}, func(*core.Tuple, int) {})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	sn.RunFor(5 * time.Second)
	for k, id := range ids {
		sn.Nodes[k].Cancel(id)
	}
	sn.RunFor(5 * time.Second)
	for i, nd := range sn.Nodes {
		if n := nd.engine.ActiveExecs(); n != 0 {
			t.Fatalf("node %d still runs %d executors after cancel", i, n)
		}
	}
	if after := sn.Net.Pending(); after != before {
		t.Fatalf("%d events pending after every query was cancelled, %d before the first", after, before)
	}
}
