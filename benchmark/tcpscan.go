package main

import (
	"math/rand"
	"runtime"
	"time"

	"pier"
	"pier/internal/core"
)

// scanPlan is the tcp-scan query: SELECT pkey, num2 FROM S WHERE
// num2 > c, the 64-byte pad riding on every result tuple.
func scanPlan(c int64, traced bool) *pier.Plan {
	return &pier.Plan{
		Tables: []pier.TableRef{{
			NS:     "S",
			Filter: &core.Cmp{Op: core.GT, L: &core.Col{Idx: 1}, R: &core.Const{V: c}},
			RIDCol: 0,
		}},
		Output: []pier.Expr{&core.Col{Idx: 0}, &core.Col{Idx: 1}},
		TTL:    10 * time.Minute,
		Trace:  traced,
	}
}

func runTCPScan(c *runCtx) *outcome {
	tuples, perRound, nodes := 150_000, 20, 4
	if c.smoke {
		tuples, perRound, nodes = 4_000, 2, 2
	}
	rounds := c.rounds()
	rng := rand.New(rand.NewSource(c.seed))
	S := make([]sRow, tuples)
	for i := range S {
		S[i] = sRow{int64(i), int64(rng.Intn(numRange)), int64(rng.Intn(numRange))}
	}
	row := func(i int) *pier.Tuple {
		return &pier.Tuple{Rel: "S", Vals: []pier.Value{S[i].pkey, S[i].num2, S[i].num3}, Pad: 64}
	}
	// Every scan keeps num2 > k for a k near the middle of the domain:
	// about half the table comes back, the exact half following -seed.
	type expect struct {
		in    []bool
		count int
	}
	expected := map[int64]expect{}
	consts := make([]int64, (rounds+1)*perRound)
	for i := range consts {
		k := int64(numRange/2 - 3 + rng.Intn(6))
		consts[i] = k
		if _, ok := expected[k]; !ok {
			e := expect{in: make([]bool, tuples)}
			for j := range S {
				if S[j].num2 > k {
					e.in[j] = true
					e.count++
				}
			}
			expected[k] = e
		}
	}

	o := &outcome{nodes: nodes, published: tuples}
	o.heapBefore = heapLive()
	t0 := time.Now()
	f, err := startFleet(nodes, operatingOptions())
	if err != nil {
		fatal(err)
	}
	defer f.close()
	tl := time.Now()
	if err := f.bulkLoad("S", tuples, row, 10*time.Minute); err != nil {
		fatal(err)
	}
	loaded := time.Now()
	o.load = loaded.Sub(tl)
	c.tr.add("setup.build", t0, tl, -1, 0)
	c.tr.add("setup.load", tl, loaded, -1, 0)
	if c.trace {
		c.set("realnet.join_s", tl.Sub(t0).Seconds())
	}

	node := f.nodes[0]
	dd := newDedup(tuples)
	q := 0
	var client *tracer
	var tracedTTLT, plainTTLT []float64
	var stages stageSamples
	scan := func(o *outcome, seg *segment) {
		k := consts[q]
		q++
		op := q // the check runs on dispatch goroutines, after q has moved on
		e := expected[k]
		traced := c.trace && op%2 == 0
		res, id, err := streamQuery(node, client, op, e.count,
			func(fn pier.ResultFunc) (uint64, error) { return node.Query(scanPlan(k, traced), fn) },
			func(t *pier.Tuple) bool {
				if len(t.Vals) != 2 {
					return false
				}
				pkey, _ := t.Vals[0].(int64)
				num2, _ := t.Vals[1].(int64)
				return pkey >= 0 && pkey < int64(tuples) && e.in[pkey] && S[pkey].num2 == num2 && dd.first(pkey, int32(op))
			})
		if o == nil {
			return // warm-up
		}
		o.attempted++
		o.expected += int64(e.count)
		o.received += res.distinct.Load()
		if err != nil {
			o.fail("%v", err)
		} else if w := res.wrong.Load(); w > 0 {
			o.fail("scan %d: %d tuples the reference does not expect", op, w)
		}
		o.ttft = append(o.ttft, float64(res.firstNs.Load())/1e6)
		o.ttlt = append(o.ttlt, float64(res.lastNs.Load())/1e6)
		seg.ops++
		seg.tuples += res.distinct.Load()
		if c.trace {
			ttlt := float64(res.lastNs.Load()) / 1e6
			if traced {
				tracedTTLT = append(tracedTTLT, ttlt)
				if tr, ok := node.Trace(id); ok {
					stages.add(tr)
				}
			} else {
				plainTTLT = append(plainTTLT, ttlt)
			}
		}
	}

	for i := 0; i < perRound/4; i++ {
		scan(nil, nil) // warm-up
	}
	o.setup = time.Since(t0)
	q = perRound
	runtime.GC()
	if c.trace {
		client = newTracer(0, time.Now())
	}
	var msBefore, msAfter runtime.MemStats
	runtime.ReadMemStats(&msBefore)
	linkStart, qsStart := f.link(), f.queryStats()
	start := time.Now()
	for r := 0; r < rounds; r++ {
		seg := segment{}
		l0, c0, t0 := f.link(), cpuTime(), time.Now()
		for i := 0; i < perRound; i++ {
			scan(o, &seg)
		}
		seg.wall, seg.cpu = time.Since(t0), cpuTime()-c0
		seg.events = int64(f.link().FramesRecv - l0.FramesRecv)
		o.segs = append(o.segs, seg)
	}
	o.wall = time.Since(start)
	linkEnd, qsEnd := f.link(), f.queryStats()
	runtime.ReadMemStats(&msAfter)
	o.bytes = int64(linkEnd.BytesSent - linkStart.BytesSent)
	o.heapAfter = heapLive()

	if c.trace {
		runtimeDelta(c, &msBefore, &msAfter, o.attempted)
		c.spans = reportSpans(c, []*tracer{client}, o.wall)
		linkLayer(c, linkStart, linkEnd)
		queryLayer(c, qsStart, qsEnd)
		storageCounters(c, f.storageStats())
		stages.report(c)
		c.set("client.ttlt_p90_ms", quantile(o.ttlt, 0.9))
		c.set("wire.bytes_per_result_tuple", float64(o.bytes)/float64(o.received))
		c.set("trace.overhead_share", median(tracedTTLT)/median(plainTTLT)-1)
		c.samples["trace.overhead_share"] = len(tracedTTLT)
		c.set("admin.snapshot_us", timeSnapshot(node))
		c.set("realnet.do_wait_us_p50", doWait(node))
		realnetEcho(c)
		tuplePathLayer(c)
		wireLayer(c, []*pier.Tuple{row(0), row(1), row(2), row(3)}, []*pier.Plan{scanPlan(50, false)})
		storageLayer(c)
	}
	return o
}
