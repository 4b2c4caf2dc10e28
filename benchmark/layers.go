package main

// Per-layer drivers: small measurements that call one layer's public
// functions directly. The traced run of a workload runs the drivers of
// the layers that workload loads (README.md has the table); they run
// after the timed phase, so they never disturb an end-to-end number.

import (
	"runtime"
	"strconv"
	"sync/atomic"
	"time"

	"pier"
	"pier/internal/core"
	"pier/internal/dht"
	"pier/internal/dht/storage"
	"pier/internal/env"
	"pier/internal/realnet"
	"pier/internal/simnet"
	"pier/internal/stats"
	"pier/internal/topology"
	"pier/internal/trace"
	"pier/internal/wire"
)

// stageSamples gathers EXPLAIN TRACE spans of traced queries by stage.
type stageSamples struct {
	dur      [trace.NumStages][]float64 // ms
	perQuery []float64
}

func (s *stageSamples) add(tr *pier.QueryTrace) {
	for i := range tr.Spans {
		sp := &tr.Spans[i]
		if sp.Stage.Valid() {
			s.dur[sp.Stage] = append(s.dur[sp.Stage], ms(sp.Dur))
		}
	}
	s.perQuery = append(s.perQuery, float64(len(tr.Spans)))
}

// report publishes the median span per stage.
func (s *stageSamples) report(c *runCtx) {
	for name, stages := range map[string][]trace.Stage{
		"core.stage_multicast_ms":   {trace.StageMulticast},
		"core.stage_executor_ms":    {trace.StageExecutor},
		"core.stage_scan_ms":        {trace.StageScan},
		"core.stage_rehash_ms":      {trace.StageRehash},
		"core.stage_dhtget_ms":      {trace.StageDHTGet},
		"core.stage_bloom_ms":       {trace.StageBloomCollect, trace.StageBloomDist},
		"core.stage_indexscan_ms":   {trace.StageIndexScan},
		"core.stage_resultflush_ms": {trace.StageResultFlush},
		"core.stage_creditstall_ms": {trace.StageCreditStall},
		"core.stage_collect_ms":     {trace.StageCollect},
	} {
		var all []float64
		for _, st := range stages {
			all = append(all, s.dur[st]...)
		}
		c.set(name, median(all))
		c.samples[name] = len(all)
	}
	c.set("trace.spans_per_query", mean(s.perQuery))
	c.samples["trace.spans_per_query"] = len(s.perQuery)
}

// timeSnapshot is the median wall time of Session.Snapshot, in us: what
// one /api/status or /metrics scrape costs the node's event loop.
func timeSnapshot(s pier.Session) float64 {
	var d []float64
	for i := 0; i < 50; i++ {
		t0 := time.Now()
		_ = s.Snapshot()
		d = append(d, us(time.Since(t0)))
	}
	return median(d)
}

// doWait is the median time from calling RealNode.Do(f) until f runs:
// the event-loop lag an application goroutine sees.
func doWait(nd *pier.RealNode) float64 {
	var d []float64
	for i := 0; i < 500; i++ {
		t0 := time.Now()
		var ran time.Time
		nd.Do(func() { ran = time.Now() })
		d = append(d, us(ran.Sub(t0)))
	}
	return median(d)
}

// realnetEcho drives two bare transport nodes with a small-frame echo:
// one frame at a time for the round-trip time, then a window of frames
// in flight for the frame rate.
func realnetEcho(c *runCtx) {
	a, err := realnet.Listen("127.0.0.1:0", 1)
	if err != nil {
		fatal(err)
	}
	defer a.Close()
	b, err := realnet.Listen("127.0.0.1:0", 2)
	if err != nil {
		fatal(err)
	}
	defer b.Close()
	msg := &core.Tuple{Rel: "echo", Vals: []core.Value{int64(1), int64(2)}}
	b.SetHandler(env.HandlerFunc(func(from env.Addr, m env.Message) { b.Send(from, m) }))
	back := make(chan struct{}, 4096) // larger than any window below, so the handler never blocks
	a.SetHandler(env.HandlerFunc(func(env.Addr, env.Message) { back <- struct{}{} }))

	var rtt []float64
	for i, n := 0, c.reps(2000); i < n; i++ {
		t0 := time.Now()
		a.Send(b.Addr(), msg)
		<-back
		if i >= n/10 {
			rtt = append(rtt, us(time.Since(t0)))
		}
	}
	c.set("realnet.rtt_us_p50", median(rtt))
	c.samples["realnet.rtt_us_p50"] = len(rtt)

	const window = 256
	frames := c.reps(100_000)
	t0 := time.Now()
	inFlight := 0
	for sent, recv := 0, 0; recv < frames; {
		for inFlight < window && sent < frames {
			a.Send(b.Addr(), msg)
			sent++
			inFlight++
		}
		<-back
		recv++
		inFlight--
	}
	// Each echoed frame crosses the wire twice.
	c.set("realnet.frames_per_s", 2*float64(frames)/time.Since(t0).Seconds())
}

// tuplePathLayer measures the result-frame codec discipline the engine
// ships (pooled frames, interned decode) on a 32-tuple frame.
func tuplePathLayer(c *runCtx) {
	cost, err := core.MeasureTuplePath(32, c.reps(4000), true)
	if err != nil {
		fatal(err)
	}
	c.set("core.encode_allocs_per_frame", cost.EncodeAllocs)
	c.set("core.decode_allocs_per_frame", cost.DecodeAllocs)
	c.set("core.decode_tuples_per_s", cost.DecodeTuplesPerSec)
}

// wireLayer times the binary codec over the workload's message mix —
// its tuples as raw payloads and as stored items, and its plans — and
// checks WireSize(), the number the simulator charges and quotas count,
// against the bytes the codec really writes.
func wireLayer(c *runCtx, tuples []*pier.Tuple, plans []*pier.Plan) {
	var mix []env.Message
	for i, t := range tuples {
		mix = append(mix, t, &storage.Item{Namespace: t.Rel, ResourceID: strconv.Itoa(i), InstanceID: int64(i),
			Payload: t, Expires: time.Unix(1_700_000_000, 0)})
	}
	for _, p := range plans {
		if err := p.Validate(); err != nil {
			fatal(err)
		}
		mix = append(mix, p)
	}
	var encoded [][]byte
	var errBytes, total float64
	for _, m := range mix {
		b, err := wire.Marshal(m)
		if err != nil {
			fatal(err)
		}
		encoded = append(encoded, b)
		d := float64(m.WireSize() - len(b))
		if d < 0 {
			d = -d
		}
		errBytes += d
		total += float64(len(b))
	}
	c.set("wire.wiresize_error_share", errBytes/total)

	passes := c.reps(20_000)
	n := float64(passes * len(mix))
	buf := make([]byte, 0, 4096)
	t0 := time.Now()
	for i := 0; i < passes; i++ {
		for _, m := range mix {
			buf, _ = wire.Append(buf[:0], m)
		}
	}
	c.set("wire.encode_ns_per_msg", float64(time.Since(t0))/n)
	t0 = time.Now()
	for i := 0; i < passes; i++ {
		for _, b := range encoded {
			if _, err := wire.Unmarshal(b); err != nil {
				fatal(err)
			}
		}
	}
	c.set("wire.decode_ns_per_msg", float64(time.Since(t0))/n)
	size := 0
	t0 = time.Now()
	for i := 0; i < passes; i++ {
		for _, m := range mix {
			size += m.WireSize()
		}
	}
	c.set("wire.wiresize_ns", float64(time.Since(t0))/n)
	runtime.KeepAlive(size)
}

// storageLayer drives the default Store (the unbounded in-memory
// manager every node gets without a quota) on its own.
func storageLayer(c *runCtx) {
	items := c.reps(50_000)
	now := time.Unix(1_700_000_000, 0)
	clock := func() time.Time { return now }
	base := heapLive()
	st := storage.New(clock)
	its := make([]*storage.Item, items)
	for i := range its {
		its[i] = &storage.Item{Namespace: "t", ResourceID: strconv.Itoa(i), InstanceID: int64(i),
			Payload: &core.Tuple{Rel: "t", Vals: []core.Value{int64(i), int64(i % numRange)}},
			Expires: now.Add(time.Duration(1+i%60) * time.Second)}
	}
	t0 := time.Now()
	for _, it := range its {
		st.Store(it)
	}
	c.set("storage.put_ns", float64(time.Since(t0))/float64(items))
	c.set("storage.bytes_per_item", float64(heapLive()-base)/float64(items))
	t0 = time.Now()
	found := 0
	for _, it := range its {
		found += len(st.Retrieve("t", it.ResourceID))
	}
	c.set("storage.get_ns", float64(time.Since(t0))/float64(items))
	t0 = time.Now()
	st.Scan("t", func(*storage.Item) bool { found++; return true })
	c.set("storage.scan_ns_per_item", float64(time.Since(t0))/float64(items))
	now = now.Add(2 * time.Minute)
	t0 = time.Now()
	swept := len(st.SweepExpired())
	c.set("storage.expire_ns_per_item", float64(time.Since(t0))/float64(swept))
	runtime.KeepAlive(found)
}

// walkMsg is the bare simulator driver's payload: a hop budget.
type walkMsg struct{ hops int32 }

func (walkMsg) WireSize() int { return 64 }

// simnetBare builds n simulator nodes with a forwarding handler and no
// PIER stack, and reports what the substrate alone costs: heap per
// node and events per wall second on random walks.
func simnetBare(c *runCtx, n int) {
	base := heapLive()
	nw := simnet.New(topology.NewFullMeshInfinite(), 1)
	for i := 0; i < n; i++ {
		nd := nw.AddNode()
		nd.SetHandler(env.HandlerFunc(func(_ env.Addr, m env.Message) {
			if msg := m.(walkMsg); msg.hops > 0 {
				nd.Send(nw.Node(int(nd.Rand().Int63n(int64(n)))).Addr(), walkMsg{hops: msg.hops - 1})
			}
		}))
	}
	c.set("simnet.bytes_per_node", float64(heapLive()-base)/float64(n))
	for i := 0; i < n; i++ {
		src := nw.Node(i)
		src.After(time.Duration(i%1000)*time.Millisecond, func() { src.Send(src.Addr(), walkMsg{hops: 40}) })
	}
	t0 := time.Now()
	events := nw.Drain()
	c.set("simnet.bare_events_per_wall_s", float64(events)/time.Since(t0).Seconds())
}

// lookupStats is what CAN and Chord routers both export.
type lookupStats interface {
	LookupStats() (count, hops int64)
}

// lookupDriver issues lookups of seeded keys from rotating nodes of a
// quiet simulated deployment and reports mean hops, median simulated
// latency and wall time per lookup.
func lookupDriver(sn *pier.SimNetwork, lookups int) (hopsMean, simMsP50, wallUs float64) {
	count0, hops0 := sumLookups(sn)
	var lat []float64
	t0 := time.Now()
	for i := 0; i < lookups; i++ {
		nd := sn.Nodes[(i*7919)%len(sn.Nodes)]
		start := sn.Net.Now()
		resolved := false
		nd.Router().Lookup(dht.KeyOf("bench.lookup", strconv.Itoa(i)), func(env.Addr) {
			resolved = true
			lat = append(lat, ms(sn.Net.Now().Sub(start)))
		})
		sn.RunUntil(time.Minute, func() bool { return resolved })
	}
	wall := time.Since(t0)
	count1, hops1 := sumLookups(sn)
	if count1 > count0 {
		hopsMean = float64(hops1-hops0) / float64(count1-count0)
	}
	return hopsMean, median(lat), us(wall) / float64(lookups)
}

func sumLookups(sn *pier.SimNetwork) (count, hops int64) {
	for _, nd := range sn.Nodes {
		if ls, ok := nd.Router().(lookupStats); ok {
			c, h := ls.LookupStats()
			count += c
			hops += h
		}
	}
	return count, hops
}

// canLayer reports the CAN numbers of a built deployment: lookups on
// it, its neighbor table size, and what maintenance alone sends on an
// idle 1024-node overlay.
func canLayer(c *runCtx, sn *pier.SimNetwork, lookups int) {
	hops, simMs, wallUs := lookupDriver(sn, lookups)
	c.set("can.lookup_hops_mean", hops)
	c.set("can.lookup_sim_ms_p50", simMs)
	c.set("can.lookup_wall_us", wallUs)
	c.samples["can.lookup_sim_ms_p50"] = lookups
	nbrs := 0
	for _, nd := range sn.Nodes {
		nbrs += len(nd.Router().Neighbors())
	}
	c.set("can.neighbors_mean", float64(nbrs)/float64(len(sn.Nodes)))
}

// idleMsgsPerNodeS builds a quiet n-node overlay with the given
// options, lets it run for d of simulated time with no queries, and
// returns messages per node per simulated second.
func idleMsgsPerNodeS(n int, opts pier.Options, d time.Duration) float64 {
	sn := pier.NewSimNetwork(n, topology.NewFullMesh(), simSeed, opts)
	sn.RunFor(d) // first period: tickers arm and desynchronise
	sn.Net.ResetStats()
	sn.RunFor(d)
	return float64(sn.Net.Totals().Messages) / float64(n) / d.Seconds()
}

// chordLayer runs the lookup driver on a Chord overlay of the same
// size, the numbers behind the "does Chord stay" decision.
func chordLayer(c *runCtx, n, lookups int) {
	opts := pier.DefaultOptions()
	opts.DHT = pier.Chord
	sn := pier.NewSimNetwork(n, topology.NewFullMesh(), simSeed, opts)
	hops, _, wallUs := lookupDriver(sn, lookups)
	c.set("chord.lookup_hops_mean", hops)
	c.set("chord.lookup_wall_us", wallUs)
}

// multicastLayer sends one provider multicast from node 0 of a quiet
// deployment and reports how many sends it took per node reached, how
// long until the last node had it, and the share of nodes reached.
func multicastLayer(c *runCtx, sn *pier.SimNetwork) {
	reached := 0
	var last time.Time
	var unsubs []func()
	for _, nd := range sn.Nodes {
		unsubs = append(unsubs, nd.Provider().OnMulticast(func(_ env.Addr, ns string, _ env.Message) {
			if ns == "bench.mcast" {
				reached++
				last = sn.Net.Now()
			}
		}))
	}
	before := sn.Net.Totals().Messages
	start := sn.Net.Now()
	sn.Nodes[0].Provider().Multicast("bench.mcast", &core.Tuple{Rel: "m"})
	sn.RunUntil(30*time.Second, func() bool { return reached == len(sn.Nodes) })
	sn.RunFor(2 * time.Second) // let duplicate copies land so they are counted
	for _, u := range unsubs {
		u()
	}
	c.set("multicast.msgs_per_node", float64(sn.Net.Totals().Messages-before)/float64(reached))
	c.set("multicast.coverage_sim_ms", ms(last.Sub(start)))
	c.set("multicast.reach_share", float64(reached)/float64(len(sn.Nodes)))
}

// providerLayer times puts and gets on a quiet simulated deployment:
// simulated latency from the call to the item arriving at its owner
// (put) or the reply reaching the caller (get), and messages per op.
func providerLayer(c *runCtx, sn *pier.SimNetwork, ops int) {
	const ns = "bench.prov"
	var arrived time.Time
	arrivals := 0
	var unsubs []func()
	for _, nd := range sn.Nodes {
		unsubs = append(unsubs, nd.Provider().OnNewData(ns, func(*storage.Item) {
			arrivals++
			arrived = sn.Net.Now()
		}))
	}
	var putMs, getMs []float64
	before := sn.Net.Totals().Messages
	for i := 0; i < ops; i++ {
		nd := sn.Nodes[(i*7919)%len(sn.Nodes)]
		start, want := sn.Net.Now(), arrivals+1
		nd.Provider().Put(ns, strconv.Itoa(i), int64(i), &core.Tuple{Rel: ns, Vals: []core.Value{int64(i)}}, time.Hour)
		sn.RunUntil(time.Minute, func() bool { return arrivals >= want })
		putMs = append(putMs, ms(arrived.Sub(start)))
	}
	sn.RunFor(time.Second)
	mid := sn.Net.Totals().Messages
	for i := 0; i < ops; i++ {
		nd := sn.Nodes[(i*104729+1)%len(sn.Nodes)]
		start, done := sn.Net.Now(), false
		nd.Provider().Get(ns, strconv.Itoa(i), func([]*storage.Item) {
			done = true
			getMs = append(getMs, ms(sn.Net.Now().Sub(start)))
		})
		sn.RunUntil(time.Minute, func() bool { return done })
	}
	sn.RunFor(time.Second)
	for _, u := range unsubs {
		u()
	}
	c.set("provider.put_sim_ms_p50", median(putMs))
	c.set("provider.get_sim_ms_p50", median(getMs))
	c.set("provider.msgs_per_put", float64(mid-before)/float64(ops))
	c.set("provider.msgs_per_get", float64(sn.Net.Totals().Messages-mid)/float64(ops))
	c.samples["provider.put_sim_ms_p50"], c.samples["provider.get_sim_ms_p50"] = ops, ops
}

// simnetLayer reports what the simulator did over the timed phase.
func simnetLayer(c *runCtx, o *outcome, maxInbound int64) {
	events := int64(0)
	for _, s := range o.segs {
		events += s.events
	}
	c.set("simnet.events", float64(events))
	c.set("simnet.ns_per_event", float64(o.wall)/float64(events))
	c.set("simnet.max_inbound_mb", float64(maxInbound)/1e6)
}

// storageCounters reports a deployment's storage pressure counters,
// summed over its nodes.
func storageCounters(c *runCtx, nodes []pier.StorageStats) {
	var evicted, throttled, dropped int64
	for _, s := range nodes {
		evicted += s.ItemsEvicted
		throttled += s.PutsThrottled
		dropped += s.PutsDropped
	}
	c.set("storage.evictions", float64(evicted))
	c.set("storage.puts_throttled", float64(throttled))
	c.set("provider.puts_dropped", float64(dropped))
}

// sumQueryStats adds up the engines' result-channel counters.
func sumQueryStats(nodes []pier.QueryStats) pier.QueryStats {
	var t pier.QueryStats
	for _, s := range nodes {
		t.ResultBatches += s.ResultBatches
		t.ResultTuples += s.ResultTuples
		t.CreditGrants += s.CreditGrants
		t.CreditStalls += s.CreditStalls
		t.BloomFallbacks += s.BloomFallbacks
		t.TraceSpans += s.TraceSpans
		t.TraceSpanDrops += s.TraceSpanDrops
	}
	return t
}

func simStorageStats(sn *pier.SimNetwork) []pier.StorageStats {
	out := make([]pier.StorageStats, len(sn.Nodes))
	for i, nd := range sn.Nodes {
		out[i] = nd.StorageStats()
	}
	return out
}

func simQueryStats(sn *pier.SimNetwork) pier.QueryStats {
	out := make([]pier.QueryStats, len(sn.Nodes))
	for i, nd := range sn.Nodes {
		out[i] = nd.QueryStats()
	}
	return sumQueryStats(out)
}

// sqlLayer times the SQL front end and the optimizer on their own:
// parse+plan of the workload's statements against a local catalog, one
// cost-based strategy choice, and one KMV sketch insert.
func sqlLayer(c *runCtx, cat pier.Catalog, stmts []string) {
	passes := c.reps(2000)
	t0 := time.Now()
	for i := 0; i < passes; i++ {
		for _, s := range stmts {
			if _, err := pier.ParseSQL(s, cat); err != nil {
				fatal(err)
			}
		}
	}
	c.set("sql.parse_plan_us", us(time.Since(t0))/float64(passes*len(stmts)))

	j := pier.JoinStats{
		Left:          pier.TableStats{Tuples: 20000, TupleBytes: 1000, Selectivity: 0.5},
		Right:         pier.TableStats{Tuples: 2000, TupleBytes: 40, Selectivity: 0.5, HashedOnJoinAttr: true},
		MatchFraction: 0.9, AvgMatches: 1,
	}
	net := pier.NetStats{Nodes: 1024}
	choices := c.reps(200_000)
	var picked atomic.Int64
	t0 = time.Now()
	for i := 0; i < choices; i++ {
		s, _ := pier.ChooseStrategy(j, net, pier.MinTraffic)
		picked.Add(int64(s))
	}
	c.set("opt.choose_ns", float64(time.Since(t0))/float64(choices))

	sk := stats.NewSketch(0)
	keys := make([]string, 4096)
	for i := range keys {
		keys[i] = strconv.Itoa(i * 31)
	}
	adds := c.reps(400_000)
	t0 = time.Now()
	for i := 0; i < adds; i++ {
		sk.Add(keys[i%len(keys)])
	}
	c.set("stats.sketch_add_ns", float64(time.Since(t0))/float64(adds))
}

// queryLayer reports the engines' result-channel counters of the timed
// phase.
func queryLayer(c *runCtx, a, b pier.QueryStats) {
	if batches := b.ResultBatches - a.ResultBatches; batches > 0 {
		c.set("core.result_tuples_per_frame", float64(b.ResultTuples-a.ResultTuples)/float64(batches))
	}
	c.set("core.credit_stalls", float64(b.CreditStalls-a.CreditStalls))
	c.set("core.credit_grants", float64(b.CreditGrants-a.CreditGrants))
	c.set("core.bloom_fallbacks", float64(b.BloomFallbacks-a.BloomFallbacks))
	c.set("trace.span_drops", float64(b.TraceSpanDrops-a.TraceSpanDrops))
}
