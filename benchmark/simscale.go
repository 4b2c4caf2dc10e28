package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"strconv"
	"time"

	"pier"
	"pier/internal/core"
	"pier/internal/dht/storage"
	"pier/internal/topology"
)

// tDomain is the domain of T.num, the range-indexed attribute; tGroups
// the number of distinct T.grp values.
const (
	tDomain = 1_000_000
	tGroups = 16
)

func genT(rng *rand.Rand, n int) []tRow {
	T := make([]tRow, n)
	for i := range T {
		T[i] = tRow{int64(i), rng.Int63n(tDomain), int64(rng.Intn(tGroups))}
	}
	return T
}

func tTuple(r tRow) *pier.Tuple {
	return &pier.Tuple{Rel: "T", Vals: []pier.Value{r.pkey, r.num, r.grp}}
}

// tMatches reports whether a stored or returned tuple is exactly row r.
func tMatches(t *pier.Tuple, r tRow) bool {
	if t == nil || len(t.Vals) != 3 {
		return false
	}
	pkey, _ := t.Vals[0].(int64)
	num, _ := t.Vals[1].(int64)
	grp, _ := t.Vals[2].(int64)
	return pkey == r.pkey && num == r.num && grp == r.grp
}

// rangeFilter is the predicate lo <= T.num < hi.
func rangeFilter(lo, hi int64) core.Expr {
	num := &core.Col{Idx: 1}
	return &core.And{
		L: &core.Cmp{Op: core.GE, L: num, R: &core.Const{V: lo}},
		R: &core.Cmp{Op: core.LT, L: num, R: &core.Const{V: hi}},
	}
}

// operatingSimOptions is a deployment that is being operated, not a
// static experiment: keepalives and failure detection on, the
// statistics catalog and the index agent ticking.
func operatingSimOptions() pier.Options {
	opts := operatingOptions()
	opts.CANConfig.Maintenance = true
	opts.Stats.Interval = 30 * time.Second
	opts.Index.Interval = 30 * time.Second
	return opts
}

func runSimScale(c *runCtx) *outcome {
	n, tuples, getsPerScan := 9_000, 20_000, 50
	if c.smoke {
		n, tuples, getsPerScan = 256, 2_000, 10
	}
	// One round is one stats/index period of simulated time: six scans
	// five simulated seconds apart, each with a batch of point gets, so
	// every round carries the same share of ticker work.
	const scansPerRound = 6
	const scanEvery = 5 * time.Second
	rounds := c.rounds()
	rng := rand.New(rand.NewSource(c.seed))
	T := genT(rng, tuples)
	type step struct {
		initiator int
		lo, hi    int64 // scan keeps lo <= num < hi: about 1% of T
		want      int   // tuples the reference expects back
		gets      []int64
	}
	steps := make([]step, (rounds+1)*scansPerRound)
	for i := range steps {
		s := step{initiator: rng.Intn(n), lo: rng.Int63n(tDomain - tDomain/100)}
		s.hi = s.lo + tDomain/100
		s.want = refRange(T, s.lo, s.hi)
		for g := 0; g < getsPerScan; g++ {
			s.gets = append(s.gets, rng.Int63n(int64(tuples)))
		}
		steps[i] = s
	}

	o := &outcome{nodes: n, simClock: true, published: tuples}
	o.heapBefore = heapLive()
	t0 := time.Now()
	sn := pier.NewSimNetwork(n, topology.NewFullMesh(), simSeed, operatingSimOptions())
	tl := time.Now()
	for i, r := range T {
		sn.Nodes[i%n].Publish("T", strconv.FormatInt(r.pkey, 10), r.pkey, tTuple(r), time.Hour)
	}
	for waited := 0; simStored(sn) < tuples; waited++ {
		if waited == 60 {
			fatal(fmt.Errorf("sim-scale load: %d of %d tuples stored after 60 simulated seconds", simStored(sn), tuples))
		}
		sn.RunFor(time.Second)
	}
	loaded := time.Now()
	o.load = loaded.Sub(tl)
	c.tr.add("setup.build", t0, tl, -1, 0)
	c.tr.add("setup.load", tl, loaded, -1, 0)
	if c.trace {
		c.set("can.bootstrap_s", tl.Sub(t0).Seconds())
	}

	dd := newDedup(tuples)
	q := 0
	var client *tracer
	var stages stageSamples
	var getMs []float64
	scanStep := func(o *outcome, seg *segment) {
		st := steps[q]
		q++
		op := q
		node := sn.Nodes[st.initiator]
		want := st.want
		plan := &pier.Plan{
			Tables: []pier.TableRef{{NS: "T", Filter: rangeFilter(st.lo, st.hi)}},
			TTL:    2 * time.Minute,
			Trace:  c.trace,
		}
		start := sn.Net.Now()
		var first, last time.Duration
		distinct, wrong, got := 0, 0, 0
		qs := client.begin("client.query", -1, op)
		sp := client.begin("client.query.submit", qs, op)
		id, err := node.Query(plan, func(t *pier.Tuple, _ int) {
			now := sn.Net.Now().Sub(start)
			if got == 0 {
				first = now
			}
			got++
			pkey := int64(-1)
			if len(t.Vals) == 3 {
				pkey, _ = t.Vals[0].(int64)
			}
			if pkey < 0 || pkey >= int64(tuples) || T[pkey].num < st.lo || T[pkey].num >= st.hi || !tMatches(t, T[pkey]) || !dd.first(pkey, int32(op)) {
				wrong++
				return
			}
			distinct++
			last = now
		})
		client.end(sp)
		if err != nil {
			fatal(err)
		}
		getsOK, getsDone := 0, 0
		for _, pkey := range st.gets {
			pkey := pkey
			gs := client.begin("client.get", qs, op)
			node.Provider().Get("T", strconv.FormatInt(pkey, 10), func(items []*storage.Item) {
				getsDone++
				getMs = append(getMs, ms(sn.Net.Now().Sub(start)))
				if len(items) == 1 {
					if t, ok := items[0].Payload.(*pier.Tuple); ok && tMatches(t, T[pkey]) {
						getsOK++
					}
				}
			})
			client.end(gs)
		}
		sp = client.begin("client.query.drain", qs, op)
		rs := client.begin("client.sim_run", sp, op)
		events := sn.Net.RunFor(scanEvery)
		client.end(rs)
		node.Cancel(id)
		client.end(sp)
		client.end(qs)
		if o == nil {
			return // warm-up
		}
		o.attempted += 1 + len(st.gets)
		o.expected += int64(want)
		o.received += int64(distinct)
		if distinct != want || wrong > 0 {
			o.fail("scan %d from node %d: %d of %d expected tuples, %d unexpected, within %v simulated", op, st.initiator, distinct, want, wrong, scanEvery)
		}
		for i := getsOK; i < len(st.gets); i++ { // one failed op per get not answered correctly
			o.fail("step %d: %d of %d gets answered with the stored tuple (%d answered at all)", op, getsOK, len(st.gets), getsDone)
		}
		o.ttft = append(o.ttft, ms(first))
		o.ttlt = append(o.ttlt, ms(last))
		seg.ops += int64(1 + len(st.gets))
		seg.tuples += int64(distinct)
		seg.events += int64(events)
		if c.trace {
			if tr, ok := node.Trace(id); ok {
				stages.add(tr)
			}
		}
	}

	scanStep(nil, nil) // warm-up
	o.setup = time.Since(t0)
	q = scansPerRound
	runtime.GC()
	if c.trace {
		client = newTracer(0, time.Now())
	}
	getMs = getMs[:0]
	var msBefore, msAfter runtime.MemStats
	runtime.ReadMemStats(&msBefore)
	sn.Net.ResetStats()
	qsStart := simQueryStats(sn)
	start := time.Now()
	for r := 0; r < rounds; r++ {
		seg := segment{}
		c0, t0 := cpuTime(), time.Now()
		for i := 0; i < scansPerRound; i++ {
			scanStep(o, &seg)
		}
		seg.wall, seg.cpu = time.Since(t0), cpuTime()-c0
		o.segs = append(o.segs, seg)
	}
	o.wall = time.Since(start)
	runtime.ReadMemStats(&msAfter)
	o.bytes = sn.Net.Totals().Bytes
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
		c.set("provider.get_sim_ms_p50", median(getMs))
		c.samples["provider.get_sim_ms_p50"] = len(getMs)
		var refresh []float64
		for i := 0; i < 50; i++ {
			t0 := time.Now()
			sn.Nodes[(i*7919)%n].RefreshStats()
			refresh = append(refresh, us(time.Since(t0)))
		}
		c.set("stats.refresh_us", median(refresh))
		c.set("admin.snapshot_us", timeSnapshot(sn.Nodes[0]))
		sn = nil // free the deployment before the drivers build theirs

		quiet := pier.NewSimNetwork(n, topology.NewFullMesh(), simSeed, pier.DefaultOptions())
		canLayer(c, quiet, c.reps(300))
		multicastLayer(c, quiet)
		quiet = nil
		m := 1024
		if c.smoke {
			m = 64
		}
		maint := pier.DefaultOptions()
		maint.CANConfig.Maintenance = true
		c.set("can.maintenance_msgs_per_node_s", idleMsgsPerNodeS(m, maint, 30*time.Second))
		withStats := pier.DefaultOptions()
		withStats.Stats.Interval = 30 * time.Second
		c.set("stats.maintenance_msgs_per_node_s", idleMsgsPerNodeS(m, withStats, 30*time.Second))
		chordLayer(c, m, c.reps(300))
		simnetBare(c, n)
		wireLayer(c, []*pier.Tuple{tTuple(T[0]), tTuple(T[1])}, []*pier.Plan{{
			Tables: []pier.TableRef{{NS: "T", Filter: rangeFilter(0, tDomain/100)}}}})
	}
	runtime.KeepAlive(sn)
	return o
}
