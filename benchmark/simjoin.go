package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"strconv"
	"time"

	"pier"
	"pier/internal/core"
	"pier/internal/topology"
)

// Column layout of the engine-side R and S tuples, and of the
// concatenated join row the post-join predicate and output see.
const (
	rPkey, rNum1, rNum2, rNum3 = 0, 1, 2, 3
	sPkey, sNum2, sNum3        = 0, 1, 2
	jRPkey, jRNum3             = 0, 3
	jSPkey, jSNum3             = 4, 6
)

// resultPad sizes result tuples at about 1 KB (paper 5.1).
const resultPad = 1024 - 60

func init() {
	pier.RegisterFunc("benchf", func(args []pier.Value) pier.Value {
		if len(args) != 2 {
			return nil
		}
		x, _ := args[0].(int64)
		y, _ := args[1].(int64)
		return benchF(x, y)
	})
}

var joinStrategies = []struct {
	s    pier.Strategy
	name string
}{
	{pier.SymmetricHash, "symhash"},
	{pier.FetchMatches, "fetch"},
	{pier.SymmetricSemiJoin, "semi"},
	{pier.BloomJoin, "bloom"},
}

// joinSelectivities cycle per query; each sets both table predicates,
// the post-join predicate stays at one half.
var joinSelectivities = []float64{0.2, 0.5, 0.8}

// selConst is the constant k for which "num > k" keeps the share sel of
// a uniform attribute over [0, numRange).
func selConst(sel float64) int64 { return int64(numRange*(1-sel)) - 1 }

// genJoinTables draws R and S as the paper describes them: attributes
// uniform, |R| = 10|S|, nine in ten R tuples with exactly one match.
func genJoinTables(rng *rand.Rand, sN int) ([]rRow, []sRow) {
	S := make([]sRow, sN)
	for i := range S {
		S[i] = sRow{int64(i), int64(rng.Intn(numRange)), int64(rng.Intn(numRange))}
	}
	R := make([]rRow, 10*sN)
	for i := range R {
		num1 := int64(sN + i) // no partner
		if rng.Float64() < 0.9 {
			num1 = int64(rng.Intn(sN))
		}
		R[i] = rRow{int64(i), num1, int64(rng.Intn(numRange)), int64(rng.Intn(numRange))}
	}
	return R, S
}

func rTuple(r rRow) *pier.Tuple {
	return &pier.Tuple{Rel: "R", Vals: []pier.Value{r.pkey, r.num1, r.num2, r.num3}, Pad: resultPad}
}

func sTuple(s sRow) *pier.Tuple {
	return &pier.Tuple{Rel: "S", Vals: []pier.Value{s.pkey, s.num2, s.num3}}
}

// joinPlan is the 5.1 query: SELECT R.pkey, S.pkey, R.pad FROM R, S
// WHERE R.num1 = S.pkey AND R.num2 > c1 AND S.num2 > c2 AND
// f(R.num3, S.num3) > c3. BloomWait is 10 s, not the 5 s default: at
// n=1024 the default lets the combined filters leave before the last
// per-node filters arrive, and the Bloom join then misses tuples
// (README.md records the finding).
func joinPlan(s pier.Strategy, k joinConsts, sN int, traced bool) *pier.Plan {
	bits := 1024
	for bits < 20*sN && bits < 1<<16 {
		bits <<= 1 // ~10 bits per distinct join key, both tables have ~2|S|
	}
	return &pier.Plan{
		Tables: []pier.TableRef{
			{NS: "R", Filter: &core.Cmp{Op: core.GT, L: &core.Col{Idx: rNum2}, R: &core.Const{V: k.c1}},
				JoinCols: []int{rNum1}, RIDCol: rPkey},
			{NS: "S", Filter: &core.Cmp{Op: core.GT, L: &core.Col{Idx: sNum2}, R: &core.Const{V: k.c2}},
				JoinCols: []int{sPkey}, RIDCol: sPkey},
		},
		Strategy: s,
		PostFilter: &core.Cmp{Op: core.GT,
			L: &core.Call{Name: "benchf", Args: []core.Expr{&core.Col{Idx: jRNum3}, &core.Col{Idx: jSNum3}}},
			R: &core.Const{V: k.c3}},
		Output:    []core.Expr{&core.Col{Idx: jRPkey}, &core.Col{Idx: jSPkey}},
		BloomWait: 10 * time.Second,
		BloomBits: bits,
		TTL:       2 * time.Minute,
		Trace:     traced,
	}
}

// simStored sums the items held across a simulated deployment.
func simStored(sn *pier.SimNetwork) int {
	total := 0
	for _, nd := range sn.Nodes {
		total += nd.Provider().Store().TotalLen()
	}
	return total
}

// simQuery runs one query on the simulator from its submission to the
// last expected tuple, cancels it and drains the network, returning the
// simulated instants and the events processed.
type simQueryResult struct {
	first, last, t30 time.Duration // simulated, since submission
	distinct, wrong  int
	events           int
	id               uint64
}

func simQuery(sn *pier.SimNetwork, tr *tracer, op, initiator, want int, plan *pier.Plan, check func(*pier.Tuple) bool) (simQueryResult, error) {
	var res simQueryResult
	start := sn.Net.Now()
	got := 0
	q := tr.begin("client.query", -1, op)
	sp := tr.begin("client.query.submit", q, op)
	id, err := sn.Nodes[initiator].Query(plan, func(t *pier.Tuple, _ int) {
		now := sn.Net.Now().Sub(start)
		if got == 0 {
			res.first = now
		}
		got++
		if !check(t) {
			res.wrong++
			return
		}
		res.distinct++
		res.last = now
		if res.distinct == 30 {
			res.t30 = now
		}
	})
	tr.end(sp)
	if err != nil {
		tr.end(q)
		return res, err
	}
	res.id = id
	deadline := sn.Net.Now().Add(time.Hour)
	run := func(name string, cont func() bool) {
		sp := tr.begin(name, q, op)
		rs := tr.begin("client.sim_run", sp, op)
		res.events += sn.Net.RunWhile(deadline, cont)
		tr.end(rs)
		tr.end(sp)
	}
	if want > 0 {
		run("client.query.first", func() bool { return got == 0 })
	}
	sp = tr.begin("client.query.drain", q, op)
	rs := tr.begin("client.sim_run", sp, op)
	res.events += sn.Net.RunWhile(deadline, func() bool { return res.distinct < want })
	sn.Nodes[initiator].Cancel(id)
	res.events += sn.Net.Drain()
	tr.end(rs)
	tr.end(sp)
	tr.end(q)
	if res.distinct < want {
		err = fmt.Errorf("query %d: %d of %d expected tuples within a simulated hour", op, res.distinct, want)
	}
	return res, err
}

func runSimJoin(c *runCtx) *outcome {
	// X is a table no query reads: other applications' tuples on the
	// same nodes, and enough of them that the bulk load takes a second.
	n, sN, xN := 1024, 1600, 28_000
	if c.smoke {
		n, sN, xN = 64, 200, 0
	}
	perRound := len(joinStrategies) * len(joinSelectivities)
	rounds := c.rounds()
	rng := rand.New(rand.NewSource(c.seed))
	R, S := genJoinTables(rng, sN)
	type expect struct {
		k     joinConsts
		match []int64
		count int
	}
	var expected []expect
	for _, sel := range joinSelectivities {
		k := joinConsts{selConst(sel), selConst(sel), selConst(0.5)}
		m, cnt := refJoin(R, S, k)
		expected = append(expected, expect{k, m, cnt})
	}
	initiators := make([]int, (rounds+1)*perRound)
	for i := range initiators {
		initiators[i] = rng.Intn(n)
	}

	o := &outcome{nodes: n, simClock: true, published: len(R) + len(S) + xN}
	o.heapBefore = heapLive()
	t0 := time.Now()
	sn := pier.NewSimNetwork(n, topology.NewFullMesh(), simSeed, operatingOptions())
	tl := time.Now()
	for i, r := range R {
		sn.Nodes[i%n].Publish("R", strconv.FormatInt(r.pkey, 10), r.pkey, rTuple(r), 0)
	}
	for i, s := range S {
		sn.Nodes[i%n].Publish("S", strconv.FormatInt(s.pkey, 10), s.pkey, sTuple(s), 0)
	}
	for i := 0; i < xN; i++ {
		x := int64(i)
		sn.Nodes[i%n].Publish("X", strconv.FormatInt(x, 10), x, &pier.Tuple{Rel: "X", Vals: []pier.Value{x, x % numRange}}, 0)
	}
	sn.Net.Drain()
	if got := simStored(sn); got != o.published {
		fatal(fmt.Errorf("sim-join load: %d of %d tuples stored", got, o.published))
	}
	loaded := time.Now()
	o.load = loaded.Sub(tl)
	c.tr.add("setup.build", t0, tl, -1, 0)
	c.tr.add("setup.load", tl, loaded, -1, 0)
	if c.trace {
		c.set("can.bootstrap_s", tl.Sub(t0).Seconds())
	}

	dd := newDedup(len(R))
	q := 0
	var client *tracer
	var stages stageSamples
	var t30 []float64
	perStrategyTTLT := map[string][]float64{}
	perStrategyMB := map[string][]float64{}
	query := func(o *outcome, seg *segment) {
		st := joinStrategies[q%len(joinStrategies)]
		e := expected[q%len(joinSelectivities)]
		initiator := initiators[q]
		q++
		op := q
		bytes0 := sn.Net.Totals().Bytes
		res, err := simQuery(sn, client, op, initiator, e.count, joinPlan(st.s, e.k, sN, c.trace),
			func(t *pier.Tuple) bool {
				if len(t.Vals) != 2 || t.Pad != resultPad {
					return false
				}
				r, _ := t.Vals[0].(int64)
				s, _ := t.Vals[1].(int64)
				return r >= 0 && r < int64(len(R)) && e.match[r] == s && dd.first(r, int32(op))
			})
		if o == nil {
			return // warm-up
		}
		bytes := sn.Net.Totals().Bytes - bytes0
		o.attempted++
		o.expected += int64(e.count)
		o.received += int64(res.distinct)
		if err != nil {
			o.fail("%v", err)
		} else if res.wrong > 0 {
			o.fail("query %d (%s): %d tuples the reference does not expect", op, st.name, res.wrong)
		}
		o.ttft = append(o.ttft, ms(res.first))
		o.ttlt = append(o.ttlt, ms(res.last))
		o.bytes += bytes
		seg.ops++
		seg.tuples += int64(res.distinct)
		seg.events += int64(res.events)
		if c.trace {
			t30 = append(t30, ms(res.t30))
			perStrategyTTLT[st.name] = append(perStrategyTTLT[st.name], ms(res.last))
			perStrategyMB[st.name] = append(perStrategyMB[st.name], float64(bytes)/1e6)
			if tr, ok := sn.Nodes[initiator].Trace(res.id); ok {
				stages.add(tr)
			}
		}
	}

	for i := 0; i < len(joinStrategies); i++ {
		query(nil, nil) // warm-up: each strategy once
	}
	o.setup = time.Since(t0)
	q = perRound // the timed phase starts on a whole cycle of strategies and selectivities
	runtime.GC()
	if c.trace {
		client = newTracer(0, time.Now())
	}
	var msBefore, msAfter runtime.MemStats
	runtime.ReadMemStats(&msBefore)
	sn.Net.ResetStats()
	qsStart := simQueryStats(sn)
	start := time.Now()
	for r := 0; r < rounds; r++ {
		seg := segment{}
		c0, t0 := cpuTime(), time.Now()
		for i := 0; i < perRound; i++ {
			query(o, &seg)
		}
		seg.wall, seg.cpu = time.Since(t0), cpuTime()-c0
		o.segs = append(o.segs, seg)
	}
	o.wall = time.Since(start)
	runtime.ReadMemStats(&msAfter)
	maxInbound := sn.Net.MaxInbound()
	o.heapAfter = heapLive()

	if c.trace {
		runtimeDelta(c, &msBefore, &msAfter, o.attempted)
		c.spans = reportSpans(c, []*tracer{client}, o.wall)
		simnetLayer(c, o, maxInbound)
		queryLayer(c, qsStart, simQueryStats(sn))
		storageCounters(c, simStorageStats(sn))
		stages.report(c)
		c.set("client.ttlt_p90_ms", quantile(o.ttlt, 0.9))
		c.set("client.t30_ms", median(t30))
		for _, st := range joinStrategies {
			c.set("core.ttlt_ms_"+st.name, median(perStrategyTTLT[st.name]))
			c.set("core.traffic_mb_"+st.name, median(perStrategyMB[st.name]))
			c.samples["core.ttlt_ms_"+st.name] = len(perStrategyTTLT[st.name])
		}
		providerLayer(c, sn, c.reps(200))
		singleNodeJoin(c, R, S, expected[1].k, expected[1].count)
		storageLayer(c)
		wireLayer(c, []*pier.Tuple{rTuple(R[0]), rTuple(R[1]), sTuple(S[0]), sTuple(S[1])},
			[]*pier.Plan{joinPlan(pier.SymmetricHash, expected[1].k, sN, false)})
	}
	runtime.KeepAlive(sn)
	return o
}

// singleNodeJoin runs the symmetric hash join on a one-node simulated
// deployment: the executor with no network under it.
func singleNodeJoin(c *runCtx, R []rRow, S []sRow, k joinConsts, want int) {
	sn := pier.NewSimNetwork(1, topology.NewFullMesh(), simSeed, pier.DefaultOptions())
	for _, r := range R {
		sn.Load("R", strconv.FormatInt(r.pkey, 10), r.pkey, rTuple(r), 0)
	}
	for _, s := range S {
		sn.Load("S", strconv.FormatInt(s.pkey, 10), s.pkey, sTuple(s), 0)
	}
	t0 := time.Now()
	res, err := simQuery(sn, nil, 0, 0, want, joinPlan(pier.SymmetricHash, k, len(S), false),
		func(*pier.Tuple) bool { return true })
	if err != nil {
		fatal(err)
	}
	c.set("core.single_node_join_tuples_per_s", float64(res.distinct)/time.Since(t0).Seconds())
}
