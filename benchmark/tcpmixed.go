package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"strconv"
	"sync"
	"time"

	"pier"
	"pier/internal/dht/storage"
	"pier/internal/index"
)

// Op kinds of the mixed workload and their shares, in percent.
const (
	opPublish = iota // Publish into W, confirmed by a Get
	opRenew          // Renew a live W tuple, confirmed by a Get
	opGet            // point Get of a T row
	opRange          // QuerySQL index range query over T, 0.5% of its rows
	opAgg            // SQL GROUP BY aggregate over T
	opKinds
)

// opShare is the issue's mix, in ops per hundred. Every block of a
// hundred ops holds exactly these counts in seeded order, so two seeds
// differ in order and constants, not in how much of each op they do.
var opShare = [opKinds]int{opPublish: 40, opRenew: 10, opGet: 25, opRange: 15, opAgg: 10}

// wLifetime is how long a W tuple lives unless renewed. The issue
// sketched 30 s "so expiry runs", but nothing published inside a 20 s
// phase would then expire inside it; 5 s keeps expiry running through
// three quarters of the phase. renewWindow is how far back a client
// reaches for a tuple to renew, well inside the lifetime.
const (
	wLifetime   = 5 * time.Second
	renewWindow = 2 * time.Second
)

// mixedClients is the issue's two client goroutines.
const mixedClients = 2

// aggWait is the aggregate's gather window. A GROUP BY answers after
// Plan.AggWait whatever the system's speed, so the client submits it,
// carries on, and checks the answer when it lands; QuerySQL offers no
// way to set the window (10 s default), so the statement goes through
// ParseSQL and Query. A partial that reaches its group's collector
// after the window is left out of the answer, so the window is wide
// enough for a host that stalls: at 300 ms one aggregate in some ten
// thousand came back a group short.
const aggWait = time.Second

// aggTTL bounds an aggregate's executors and partial state, which stay
// until the TTL whether or not the initiator cancels (at 30 s they were
// a third of the heap at the end of the phase).
const aggTTL = 3 * time.Second

var tSchema = pier.SQLTable{Name: "T", Cols: []string{"pkey", "num", "grp"}, Key: "pkey"}

// mixedOp is one generated op with the answer the reference expects.
type mixedOp struct {
	kind   int
	pkey   int64              // opGet
	lo, hi int64              // opRange: lo <= num < hi; opAgg: pkey >= lo
	want   int                // opRange: matching rows
	groups map[int64]groupAgg // opAgg
}

// genMixedOps generates a client's op sequence.
func genMixedOps(rng *rand.Rand, T []tRow, n int) []mixedOp {
	var block []int
	for kind, share := range opShare {
		for i := 0; i < share; i++ {
			block = append(block, kind)
		}
	}
	ops := make([]mixedOp, n)
	for i := range ops {
		if i%len(block) == 0 {
			rng.Shuffle(len(block), func(a, b int) { block[a], block[b] = block[b], block[a] })
		}
		kind := block[i%len(block)]
		op := mixedOp{kind: kind}
		switch kind {
		case opGet:
			op.pkey = rng.Int63n(int64(len(T)))
		case opRange:
			width := int64(tDomain / 200) // about fifty of ten thousand rows
			op.lo = rng.Int63n(tDomain - width)
			op.hi = op.lo + width
			op.want = refRange(T, op.lo, op.hi)
		case opAgg:
			op.lo = rng.Int63n(int64(len(T) / 2))
			op.groups = refGroupBy(T, op.lo)
		}
		ops[i] = op
	}
	return ops
}

// querySQL submits src through QuerySQL and waits for the planner's
// answer: the query id, or the first error.
func querySQL(nd *pier.RealNode, src string, fn pier.ResultFunc) (uint64, error) {
	type started struct {
		id  uint64
		err error
	}
	ch := make(chan started, 1)
	nd.QuerySQL(src, []string{"T"}, fn, func(id uint64, err error) { ch <- started{id, err} })
	s := <-ch
	return s.id, s.err
}

// getItems is a blocking Provider.Get from an application goroutine.
func getItems(nd *pier.RealNode, ns, rid string) []*storage.Item {
	ch := make(chan []*storage.Item, 1)
	nd.Do(func() { nd.Provider().Get(ns, rid, func(items []*storage.Item) { ch <- items }) })
	return <-ch
}

// indexSettled reports whether every trie leaf across the fleet is
// within the split threshold (or at maximum depth) and holds no
// entries under an interior marker, and how many entries are stored.
func indexSettled(f *fleet) (settled bool, entries int) {
	settled = true
	for _, nd := range f.nodes {
		nd := nd
		nd.Do(func() {
			cfg := nd.Indexes().Config()
			perNode := map[string]int{}
			marker := map[string]bool{}
			nd.Provider().Scan(index.NS, func(it *storage.Item) bool {
				switch it.Payload.(type) {
				case *index.Entry:
					perNode[it.ResourceID]++
					entries++
				case *index.Marker:
					marker[it.ResourceID] = true
				}
				return true
			})
			for rid, k := range perNode {
				depth := len(rid) - len("t_num|")
				if marker[rid] || (k > cfg.SplitThreshold && depth < cfg.MaxDepth) {
					settled = false
				}
			}
		})
	}
	return settled, entries
}

// mixedOptions spells out the index agent's split threshold and depth
// limit (its documented defaults), so that indexSettled judges the trie
// by the configuration the nodes run with.
func mixedOptions() pier.Options {
	opts := operatingOptions()
	opts.Index.SplitThreshold = 16
	opts.Index.MaxDepth = 24
	return opts
}

// indexSeed and indexChunk pace the index build. Splitting a leaf
// re-puts every entry in it one level down, one level per tick, and the
// transport drops frames beyond a peer's 1024-frame outbox. T.num's
// encoded keys share their first dozen bits, so a tick over a loaded
// table moves the whole table at once and loses entries, as does
// CREATE INDEX over an already loaded table (README.md records both).
// The build therefore publishes a few rows, ticks until the trie has
// grown down to where the keys diverge, and only then publishes the
// rest, a tick after every chunk, so no tick moves more than a chunk.
const (
	indexSeed  = 64
	indexChunk = 256
)

// buildIndex registers T, creates the PHT index on T.num with CREATE
// INDEX, then publishes T while driving the maintenance tick on every
// node, and keeps ticking until the trie has settled.
func buildIndex(f *fleet, cat pier.Catalog, T []tRow) error {
	f.nodes[0].RegisterTable(tSchema, time.Hour)
	if err := f.nodes[0].Exec("CREATE INDEX t_num ON T (num)", cat); err != nil {
		return err
	}
	deadline := time.Now().Add(60 * time.Second)
	for _, nd := range f.nodes {
		for len(nd.Snapshot().Indexes) == 0 {
			if time.Now().After(deadline) {
				return fmt.Errorf("index build: node %s never saw the definition", nd.Addr())
			}
			time.Sleep(200 * time.Microsecond)
		}
	}
	// waitEntries blocks until want entries are stored: placed and
	// relocated entries are in flight as puts until then.
	waitEntries := func(want int) error {
		for {
			_, entries := indexSettled(f)
			if entries >= want {
				return nil
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("index build: %d of %d entries stored after 60s", entries, want)
			}
			time.Sleep(200 * time.Microsecond)
		}
	}
	tick := func() {
		for _, nd := range f.nodes {
			nd := nd
			nd.Do(func() { nd.Indexes().Tick() })
		}
	}
	settle := func(want int) error {
		for {
			if err := waitEntries(want); err != nil {
				return err
			}
			if settled, _ := indexSettled(f); settled {
				return nil
			}
			tick()
		}
	}
	for off, size := 0, indexSeed; off < len(T); size = indexChunk {
		end := off + size
		if end > len(T) {
			end = len(T)
		}
		for i := off; i < end; i++ {
			f.nodes[i%len(f.nodes)].Publish("T", strconv.FormatInt(T[i].pkey, 10), T[i].pkey, tTuple(T[i]), 10*time.Minute)
		}
		if err := waitEntries(end); err != nil {
			return err
		}
		if off == 0 {
			if err := settle(end); err != nil {
				return err
			}
		} else {
			tick()
		}
		off = end
	}
	return settle(len(T))
}

// mixedClient is one closed-loop client goroutine, bound to one node.
type mixedClient struct {
	id     int
	nd     *pier.RealNode
	tr     *tracer
	T      []tRow
	cat    pier.Catalog
	dd     *dedup
	ops    []mixedOp
	opSeq  int
	wSeq   int64
	recent []wKey // W tuples published by this client, oldest first
	// pending counts aggregates submitted and not yet answered.
	pending sync.WaitGroup
	mu      sync.Mutex // guards res against the aggregates' callbacks
	res     mixedResult
}

type wKey struct {
	rid string
	iid int64
	at  time.Time
}

// mixedResult is what a client measured.
type mixedResult struct {
	attempted, failed   int
	firstError          string
	expected, received  int64
	ttft, ttlt          []float64 // range queries, ms
	getUs, pubUs, sqlMs []float64
	submitUs            []float64
}

func (r *mixedResult) fail(format string, args ...any) {
	r.failed++
	if r.firstError == "" {
		r.firstError = fmt.Sprintf(format, args...)
	}
}

// count records one attempted op and, unless ok, its failure.
func (m *mixedClient) count(ok bool, format string, args ...any) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.res.attempted++
	if !ok {
		m.res.fail(format, args...)
	}
}

func wTuple(seq int64) *pier.Tuple {
	return &pier.Tuple{Rel: "W", Vals: []pier.Value{seq, seq % numRange}}
}

// confirm polls Get until the W tuple is visible, up to two seconds.
func (m *mixedClient) confirm(k wKey) bool {
	for deadline := time.Now().Add(2 * time.Second); ; {
		for _, it := range getItems(m.nd, "W", k.rid) {
			if t, ok := it.Payload.(*pier.Tuple); ok && it.InstanceID == k.iid && len(t.Vals) == 2 && t.Vals[0] == pier.Value(k.iid) {
				return true
			}
		}
		if time.Now().After(deadline) {
			return false
		}
	}
}

// run does the client's next n ops.
func (m *mixedClient) run(n int) {
	for end := m.opSeq + n; m.opSeq < end; {
		m.do(&m.ops[m.opSeq])
	}
}

func (m *mixedClient) do(op *mixedOp) {
	m.opSeq++
	seq := m.opSeq
	r := &m.res
	kind := op.kind
	if kind == opRenew {
		// Drop tuples too old to renew safely; without a live one the
		// op publishes instead.
		for len(m.recent) > 0 && time.Since(m.recent[0].at) > renewWindow {
			m.recent = m.recent[1:]
		}
		if len(m.recent) == 0 {
			kind = opPublish
		}
	}
	t0 := time.Now()
	switch kind {
	case opPublish:
		m.wSeq++
		k := wKey{rid: fmt.Sprintf("c%d-%d", m.id, m.wSeq), iid: int64(m.id)<<40 | m.wSeq, at: t0}
		m.nd.Publish("W", k.rid, k.iid, wTuple(k.iid), wLifetime)
		ok := m.confirm(k)
		end := time.Now()
		m.tr.add("client.publish", t0, end, -1, seq)
		m.count(ok, "client %d op %d: published tuple %s not returned by Get within 2s", m.id, seq, k.rid)
		r.pubUs = append(r.pubUs, us(end.Sub(t0)))
		m.recent = append(m.recent, k)
	case opRenew:
		k := m.recent[len(m.recent)/2]
		m.nd.Renew("W", k.rid, k.iid, wTuple(k.iid), wLifetime)
		ok := m.confirm(k)
		m.tr.add("client.renew", t0, time.Now(), -1, seq)
		m.count(ok, "client %d op %d: renewed tuple %s not returned by Get within 2s", m.id, seq, k.rid)
	case opGet:
		items := getItems(m.nd, "T", strconv.FormatInt(op.pkey, 10))
		end := time.Now()
		m.tr.add("client.get", t0, end, -1, seq)
		ok := false
		if len(items) == 1 {
			t, isTuple := items[0].Payload.(*pier.Tuple)
			ok = isTuple && tMatches(t, m.T[op.pkey])
		}
		m.count(ok, "client %d op %d: Get of T/%d returned %d items, none the stored tuple", m.id, seq, op.pkey, len(items))
		r.getUs = append(r.getUs, us(end.Sub(t0)))
	case opRange:
		src := fmt.Sprintf("SELECT pkey, num FROM T WHERE num >= %d AND num < %d", op.lo, op.hi)
		var submitted time.Time
		res, _, err := streamQuery(m.nd, m.tr, seq, op.want,
			func(fn pier.ResultFunc) (uint64, error) {
				id, err := querySQL(m.nd, src, fn)
				submitted = time.Now()
				return id, err
			},
			func(t *pier.Tuple) bool {
				if len(t.Vals) != 2 {
					return false
				}
				pkey, _ := t.Vals[0].(int64)
				num, _ := t.Vals[1].(int64)
				return pkey >= 0 && pkey < int64(len(m.T)) && m.T[pkey].num == num &&
					num >= op.lo && num < op.hi && m.dd.first(pkey, int32(seq))
			})
		m.mu.Lock()
		r.expected += int64(op.want)
		r.received += res.distinct.Load()
		m.mu.Unlock()
		if err != nil {
			m.count(false, "client %d: %v", m.id, err)
		} else {
			m.count(res.wrong.Load() == 0, "client %d op %d: range query returned %d tuples the reference does not expect", m.id, seq, res.wrong.Load())
		}
		r.ttft = append(r.ttft, float64(res.firstNs.Load())/1e6)
		r.ttlt = append(r.ttlt, float64(res.lastNs.Load())/1e6)
		r.sqlMs = append(r.sqlMs, ms(time.Since(t0)))
		r.submitUs = append(r.submitUs, us(submitted.Sub(t0)))
	case opAgg:
		m.aggregate(op, seq, t0)
	}
}

// aggregate submits SELECT grp, count(*), sum(num) FROM T WHERE pkey >=
// k GROUP BY grp and returns. The predicate is on a column without an
// index: bounded on T.num the planner (cold catalog) walks the whole
// trie instead of scanning, some 90 ms of CPU per aggregate (README.md
// records the finding), and the range queries already load the index.
// The answer is checked against the reference when the last
// group arrives, and the query cancelled then.
func (m *mixedClient) aggregate(op *mixedOp, seq int, t0 time.Time) {
	src := fmt.Sprintf("SELECT grp, count(*) AS cnt, sum(num) AS total FROM T WHERE pkey >= %d GROUP BY grp", op.lo)
	plan, err := pier.ParseSQL(src, m.cat)
	if err != nil {
		fatal(err)
	}
	plan.AggWait = aggWait
	plan.TTL = aggTTL
	m.pending.Add(1)
	// The result callback runs on a dispatch goroutine and the timeout
	// on the timer's; mu orders them. The query id reaches whichever
	// finishes through idCh, since it may finish before Query returns.
	var (
		mu   sync.Mutex
		seen = map[int64]bool{}
		bad  int
		done bool
	)
	idCh := make(chan uint64, 1)
	finish := func(timedOut bool) { // mu held
		if done {
			return
		}
		done = true
		m.mu.Lock()
		m.res.expected += int64(len(op.groups))
		m.res.received += int64(len(seen))
		m.mu.Unlock()
		m.count(!timedOut && bad == 0, "client %d op %d: aggregate returned %d of %d groups, %d wrong", m.id, seq, len(seen), len(op.groups), bad)
		// Cancel marshals onto the event loop; a result callback must
		// not wait on it.
		go func() {
			m.nd.Cancel(<-idCh)
			m.pending.Done()
		}()
	}
	timeout := time.AfterFunc(queryTimeout, func() {
		mu.Lock()
		defer mu.Unlock()
		finish(true)
	})
	id, err := m.nd.Query(plan, func(t *pier.Tuple, _ int) {
		mu.Lock()
		defer mu.Unlock()
		if len(t.Vals) != 3 {
			bad++
			return
		}
		grp, _ := t.Vals[0].(int64)
		cnt, _ := t.Vals[1].(int64)
		sum, _ := t.Vals[2].(int64)
		if want, ok := op.groups[grp]; !ok || seen[grp] || want.count != cnt || want.sum != sum {
			bad++
			return
		}
		seen[grp] = true
		if len(seen) == len(op.groups) {
			timeout.Stop()
			finish(false)
		}
	})
	m.tr.add("client.query", t0, time.Now(), -1, seq)
	if err != nil {
		fatal(err)
	}
	idCh <- id
}

func runTCPMixed(c *runCtx) *outcome {
	rows, nodes, clients, opsPerRound, ballast := 10_000, 4, mixedClients, 1_600, 100_000
	if c.smoke {
		rows, nodes, opsPerRound, ballast = 1_000, 2, 200, 2_000
	}
	rounds := c.rounds()
	warmup := opsPerRound / 4
	rng := rand.New(rand.NewSource(c.seed))
	T := genT(rng, rows)
	cat := pier.Catalog{"T": tSchema}
	cl := make([]*mixedClient, clients)
	for i := range cl {
		cl[i] = &mixedClient{id: i, T: T, cat: cat, dd: newDedup(rows),
			ops: genMixedOps(rng, T, warmup+rounds*opsPerRound)}
	}
	// all runs every client's next n ops, the clients side by side.
	all := func(n int) {
		var wg sync.WaitGroup
		for _, m := range cl {
			wg.Add(1)
			go func(m *mixedClient) {
				defer wg.Done()
				m.run(n)
			}(m)
		}
		wg.Wait()
	}
	// progress reads the counters the aggregates' callbacks also write.
	progress := func() (attempted int, tuples int64) {
		for _, m := range cl {
			m.mu.Lock()
			attempted += m.res.attempted
			tuples += m.res.received
			m.mu.Unlock()
		}
		return attempted, tuples
	}

	// W starts out holding other publishers' tuples, the bulk load; T is
	// published as the index is built.
	o := &outcome{nodes: nodes, published: ballast}
	o.heapBefore = heapLive()
	t0 := time.Now()
	f, err := startFleet(nodes, mixedOptions())
	if err != nil {
		fatal(err)
	}
	defer f.close()
	tl := time.Now()
	if err := f.bulkLoad("W", ballast, func(i int) *pier.Tuple { return wTuple(int64(i)) }, 10*time.Minute); err != nil {
		fatal(err)
	}
	ti := time.Now()
	o.load = ti.Sub(tl)
	if err := buildIndex(f, cat, T); err != nil {
		fatal(err)
	}
	indexed := time.Now()
	c.tr.add("setup.build", t0, tl, -1, 0)
	c.tr.add("setup.load", tl, ti, -1, 0)
	c.tr.add("setup.index", ti, indexed, -1, 0)
	if c.trace {
		c.set("realnet.join_s", tl.Sub(t0).Seconds())
		c.set("index.build_s", indexed.Sub(ti).Seconds())
	}
	for i, m := range cl {
		m.nd = f.nodes[i%nodes]
	}
	all(warmup)
	for _, m := range cl {
		m.pending.Wait()
		m.res = mixedResult{}
	}
	o.setup = time.Since(t0)

	runtime.GC()
	if c.trace {
		start := time.Now()
		for i, m := range cl {
			m.tr = newTracer(i, start)
		}
	}
	var msBefore, msAfter runtime.MemStats
	runtime.ReadMemStats(&msBefore)
	snapStart := f.nodes[0].Snapshot()
	linkStart, qsStart := f.link(), f.queryStats()
	start := time.Now()
	for r := 0; r < rounds; r++ {
		a0, tup0 := progress()
		l0, c0, t0 := f.link(), cpuTime(), time.Now()
		all(opsPerRound)
		seg := segment{wall: time.Since(t0), cpu: cpuTime() - c0, events: int64(f.link().FramesRecv - l0.FramesRecv)}
		a1, tup1 := progress()
		seg.ops, seg.tuples = int64(a1-a0), tup1-tup0
		o.segs = append(o.segs, seg)
	}
	tail := time.Now()
	for _, m := range cl {
		m.pending.Wait() // the last aggregates' answers
		m.tr.add("client.query.drain", tail, time.Now(), -1, m.opSeq)
	}
	o.wall = time.Since(start)
	linkEnd, qsEnd := f.link(), f.queryStats()
	snapEnd := f.nodes[0].Snapshot()
	runtime.ReadMemStats(&msAfter)
	o.bytes = int64(linkEnd.BytesSent - linkStart.BytesSent)
	// The last aggregates' executors and partials stay until their TTL;
	// how many are left depends on how fast the phase ran. Let them go,
	// so that the heap is the stored tables and index, run after run.
	time.Sleep(aggTTL)
	o.heapAfter = heapLive()

	var getUs, pubUs, sqlMs, submitUs []float64
	var tracers []*tracer
	for _, m := range cl {
		r := &m.res
		o.attempted += r.attempted
		o.failed += r.failed
		if o.firstError == "" {
			o.firstError = r.firstError
		}
		o.expected += r.expected
		o.received += r.received
		o.ttft = append(o.ttft, r.ttft...)
		o.ttlt = append(o.ttlt, r.ttlt...)
		getUs, pubUs = append(getUs, r.getUs...), append(pubUs, r.pubUs...)
		sqlMs, submitUs = append(sqlMs, r.sqlMs...), append(submitUs, r.submitUs...)
		tracers = append(tracers, m.tr)
	}

	if c.trace {
		runtimeDelta(c, &msBefore, &msAfter, o.attempted)
		c.spans = reportSpans(c, tracers, o.wall)
		linkLayer(c, linkStart, linkEnd)
		queryLayer(c, qsStart, qsEnd)
		storageCounters(c, f.storageStats())
		c.set("client.ttlt_p90_ms", quantile(o.ttlt, 0.9))
		c.set("client.get_p50_us", median(getUs))
		c.set("client.publish_p50_us", median(pubUs))
		c.set("client.sql_p50_ms", median(sqlMs))
		c.set("sql.querysql_submit_us_p50", median(submitUs))
		c.set("index.range_ttlt_ms_p50", median(o.ttlt))
		c.samples["client.get_p50_us"], c.samples["client.publish_p50_us"] = len(getUs), len(pubUs)
		c.samples["client.sql_p50_ms"], c.samples["sql.querysql_submit_us_p50"] = len(sqlMs), len(submitUs)
		if scans := snapEnd.IndexScans - snapStart.IndexScans; scans > 0 {
			c.set("index.gets_per_range_query", float64(snapEnd.IndexVisits-snapStart.IndexVisits)/float64(scans))
		}
		c.set("index.insert_us_p50", indexInsert(f, len(T)))
		mixedTraces(c, f.nodes[0], T)
		c.set("admin.snapshot_us", timeSnapshot(f.nodes[0]))
		c.set("realnet.do_wait_us_p50", doWait(f.nodes[0]))
		var refresh []float64
		for i := 0; i < 50; i++ {
			t0 := time.Now()
			f.nodes[i%nodes].RefreshStats()
			refresh = append(refresh, us(time.Since(t0)))
		}
		c.set("stats.refresh_us", median(refresh))
		realnetEcho(c)
		sqlLayer(c, cat, []string{
			"SELECT pkey, num FROM T WHERE num >= 1000 AND num < 3500",
			"SELECT grp, count(*) AS cnt, sum(num) AS total FROM T WHERE pkey >= 1000 GROUP BY grp",
		})
		wireLayer(c, []*pier.Tuple{tTuple(T[0]), tTuple(T[1]), wTuple(1), wTuple(2)}, nil)
		storageLayer(c)
	}
	return o
}

// indexInsert is the median wall time, in us, of Session.Publish on the
// indexed table: the base put plus the index entry placed beside it.
func indexInsert(f *fleet, from int) float64 {
	var d []float64
	for i := 0; i < 500; i++ {
		r := tRow{int64(from + i), int64(i) * 1999 % tDomain, int64(i % tGroups)}
		t0 := time.Now()
		f.nodes[i%len(f.nodes)].Publish("T", strconv.FormatInt(r.pkey, 10), r.pkey, tTuple(r), time.Minute)
		d = append(d, us(time.Since(t0)))
	}
	return median(d)
}

// mixedTraces runs a few EXPLAIN TRACE range queries and reports their
// stages.
func mixedTraces(c *runCtx, nd *pier.RealNode, T []tRow) {
	var stages stageSamples
	for i := 0; i < 20; i++ {
		lo := int64(i) * tDomain / 20
		hi := lo + tDomain/400
		want := refRange(T, lo, hi)
		src := fmt.Sprintf("EXPLAIN TRACE SELECT pkey, num FROM T WHERE num >= %d AND num < %d", lo, hi)
		_, id, err := streamQuery(nd, nil, i, want,
			func(fn pier.ResultFunc) (uint64, error) { return querySQL(nd, src, fn) },
			func(*pier.Tuple) bool { return true })
		if err != nil {
			fatal(err)
		}
		if tr, ok := nd.Trace(id); ok {
			stages.add(tr)
		}
	}
	stages.report(c)
}
