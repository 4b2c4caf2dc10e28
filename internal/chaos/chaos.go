// Package chaos is the deterministic fault-injection harness for
// simulated PIER deployments. A Config describes a scenario — node
// churn (crashes and graceful leaves with rejoin), partition windows,
// link-loss bursts, and a randomized query workload or the paper's
// query — all derived from one seed. Run executes the scenario three ways:
//
//   - a fault-free oracle run (the same seed, workload, and timing with
//     every fault disabled), giving the reference result set of each
//     query;
//   - the faulted run, whose per-query results are compared against the
//     oracle's ("a best effort result", §1.2; Figure 6 measures exactly
//     this recall-under-churn);
//   - optionally a replay of the faulted run, asserting the event trace
//     reproduces bit-for-bit from the seed.
//
// Invariant checkers then hold the run to PIER's relaxed-consistency
// contract: every query terminates or times out cleanly, recall stays
// above a configurable floor, soft state expires once its producers
// stop renewing, the statistics catalog re-converges after churn, and
// no message is ever dispatched to a dead node's stack.
package chaos

import (
	"fmt"
	"math/rand"
	"time"

	"pier"
	"pier/internal/core"
	"pier/internal/dht/storage"
	"pier/internal/env"
	"pier/internal/index"
	"pier/internal/opt"
	"pier/internal/simnet"
	"pier/internal/topology"
	"pier/internal/workload"
)

// PartitionWindow isolates a random Frac of the live population into a
// separate island for Duration, starting Start into the active phase.
type PartitionWindow struct {
	Start    time.Duration
	Duration time.Duration
	Frac     float64
}

// LossBurst raises the global link-loss probability to Prob for
// Duration, starting Start into the active phase.
type LossBurst struct {
	Start    time.Duration
	Duration time.Duration
	Prob     float64
}

// Config describes one chaos scenario. Every random choice — fault
// times, victims, query parameters — derives from Seed, so a Config is
// a complete reproduction recipe.
type Config struct {
	// Nodes is the initial population; node 0 is the driver (it loads
	// and renews tuples and initiates queries, standing in for the
	// paper's wrappers) and is never failed or isolated.
	Nodes int
	Seed  int64
	DHT   pier.DHTKind

	// CrashesPerMin is the churn rate during the active phase. Each
	// departure is followed by a fresh identity rejoining through the
	// driver, keeping the population constant (§5.6 fails nodes at a
	// constant rate). GracefulFrac of departures Leave cleanly instead
	// of crashing.
	CrashesPerMin float64
	GracefulFrac  float64

	// Partitions and LossBursts are fault windows inside the active
	// phase; BaseLoss applies outside the bursts.
	Partitions []PartitionWindow
	LossBursts []LossBurst
	BaseLoss   float64

	// STuples sizes the workload tables (|R| = 10 × |S|);
	// RefreshPeriod is the driver's renew period for every tuple.
	STuples       int
	RefreshPeriod time.Duration

	// Queries generated queries run back to back, each collecting
	// results for QueryEvery (also the query TTL).
	Queries    int
	QueryEvery time.Duration

	// PaperQuery replaces the generated mix with the paper's query run
	// Queries times: the §5.1 join under symmetric hash at
	// selectivities 0.5 / 0.5 / 0.5, never cancelled early, the
	// workload of Figure 6. Every run has the same true answer, so the
	// pooled Recall is the per-query mean, and an extra invariant holds
	// the oracle to workload.ReferenceJoin.
	PaperQuery bool

	// RecallFloor is the invariant threshold for total recall against
	// the oracle run.
	RecallFloor float64

	// StatsInterval enables the per-node statistics catalog and its
	// re-convergence invariant; zero disables both.
	StatsInterval time.Duration

	// RangeQueries creates a PHT index over S.num2 before the warmup
	// (with per-node trie maintenance every StatsInterval, or 30 s when
	// that is off) and swaps index-backed range queries into the
	// generated mix, so index lookups, entry renewal, and split/merge
	// healing run under the same faults — and the same recall
	// comparison — as everything else.
	RangeQueries bool

	// PublishFlood publishes this many extra padded tuples into the hot
	// namespace FloodNS over the first half of the active phase — a few
	// hot resource keys, unique instance ids, no renewal — modeling a
	// misbehaving or misconfigured publisher. The faulted run bounds
	// FloodNS to floodQuota bytes per node (the oracle stays
	// unbounded), so every flood result the bounded run loses is
	// attributable to eviction: the storage-within-budget invariant
	// probes every live node's occupancy through the run,
	// flood-backpressure-engaged requires the put-throttle protocol to
	// have fired, and flood-recall-vs-evicted bounds the oracle results
	// missing from the bounded run by the eviction and drop counters.
	// Zero disables the flood.
	PublishFlood int

	// TraceQueries forces distributed tracing on every generated
	// query, so span recording, piggybacked delivery, and trace
	// assembly run under the same faults as the queries themselves.
	// Combined with VerifyReplay it proves tracing never perturbs the
	// deterministic schedule (a forced Plan.Trace draws no sampling
	// randomness), and an extra invariant requires every accepted
	// query to leave a finished, non-empty retained trace on the
	// driver. The driver retains its last 16 traces, so a traced
	// scenario runs at most 16 queries, the flood scan included.
	TraceQueries bool

	// VerifyReplay re-runs the faulted scenario and asserts the trace
	// fingerprint is identical — the determinism invariant.
	VerifyReplay bool
}

// warmup runs before any fault or query; floodQuota is the faulted
// run's per-node byte quota for FloodNS.
const (
	warmup           = 30 * time.Second
	floodQuota int64 = 4 << 10
)

// Norm fills defaults.
func (c Config) Norm() Config {
	if c.Nodes == 0 {
		c.Nodes = 64
	}
	if c.STuples == 0 {
		c.STuples = 100
	}
	if c.RefreshPeriod == 0 {
		c.RefreshPeriod = time.Minute
	}
	if c.Queries == 0 {
		c.Queries = 8
	}
	if c.QueryEvery == 0 {
		c.QueryEvery = time.Minute
	}
	return c
}

// Duration returns the length of the active phase (faults are
// scheduled inside it): the workload's total collection time.
func (c Config) Duration() time.Duration {
	return time.Duration(c.Queries) * c.QueryEvery
}

// indexInterval is the trie maintenance period of a RangeQueries scenario.
func (c Config) indexInterval() time.Duration {
	if c.StatsInterval > 0 {
		return c.StatsInterval
	}
	return 30 * time.Second
}

// tables generates the scenario's workload relations.
func (c Config) tables() *workload.Tables {
	return workload.Generate(workload.Config{STuples: c.STuples, Seed: c.Seed + 3, PadBytes: 64})
}

// querySpecs is the scenario's query sequence: the paper's query
// repeated, or the generated mix.
func (c Config) querySpecs() []QuerySpec {
	if !c.PaperQuery {
		return GenerateQueriesMix(c.Queries, c.Seed, c.RangeQueries)
	}
	specs := make([]QuerySpec, c.Queries)
	for i := range specs {
		specs[i] = paperJoin
	}
	return specs
}

// Default is the pinned reference scenario the acceptance criteria and
// the CI smoke run use: 64 nodes under 4 departures/min (30% graceful),
// one 60 s partition isolating a quarter of the network mid-run, 1%
// steady link loss with a 5% burst, and the full query mix.
func Default(seed int64) Config {
	return Config{
		Nodes:         64,
		Seed:          seed,
		CrashesPerMin: 4,
		GracefulFrac:  0.3,
		Partitions:    []PartitionWindow{{Start: 2 * time.Minute, Duration: time.Minute, Frac: 0.25}},
		LossBursts:    []LossBurst{{Start: 5 * time.Minute, Duration: 30 * time.Second, Prob: 0.05}},
		BaseLoss:      0.01,
		RecallFloor:   0.5,
		StatsInterval: time.Minute,
		VerifyReplay:  true,
	}
}

// DefaultFlood is the pinned flood-pressure scenario CI smokes: no
// churn, partitions, or loss — the only "fault" is the per-node byte
// quota on the flood namespace, so every difference against the
// unbounded oracle is attributable to eviction and the invariants can
// hold the byte budget and the forgetting bound exactly, on top of the
// usual termination, expiry, and replay-determinism checks.
func DefaultFlood(seed int64) Config {
	return Config{
		Nodes:         64,
		Seed:          seed,
		STuples:       60,
		RefreshPeriod: time.Minute,
		Queries:       4,
		QueryEvery:    time.Minute,
		RecallFloor:   0.9,
		StatsInterval: time.Minute,
		PublishFlood:  1200,
		VerifyReplay:  true,
	}
}

// DefaultRange is the pinned reference scenario with the Prefix Hash
// Tree in play: the same faults as Default, plus an index over S.num2
// whose range queries replace part of the scan mix. CI smokes it
// separately so index regressions fail loudly rather than diluting the
// base scenario's trace.
func DefaultRange(seed int64) Config {
	cfg := Default(seed)
	cfg.RangeQueries = true
	return cfg
}

// queryOutcome records one executed query's results.
type queryOutcome struct {
	spec QuerySpec
	id   uint64
	keys map[string]bool
	err  error
}

// scenarioResult is one full simulated run.
type scenarioResult struct {
	queries    []queryOutcome
	stats      simnet.Stats
	channel    core.QueryStats
	invariants []Invariant

	// Flood-scenario accounting: periodic per-node occupancy probes of
	// the flood namespace, and the storage/backpressure counters summed
	// across the nodes alive at the end of the run.
	budgetProbes     int
	budgetViolations int
	budgetPeak       int64
	floodEvicted     int64
	floodDropped     int64
	floodThrottled   int64
	floodDelayed     int64
}

// Run executes the scenario: oracle run, faulted run, recall
// comparison, and (with VerifyReplay) a determinism replay. The
// returned Report carries every invariant verdict.
func Run(cfg Config) *Report {
	cfg = cfg.Norm()
	// Validate the fault windows (BuildSchedule panics on overlapping
	// same-type windows) before spending the oracle run.
	BuildSchedule(cfg)
	oracle := runScenario(cfg, true)
	faulted := runScenario(cfg, false)

	rep := &Report{Cfg: cfg, Stats: faulted.stats, Channel: faulted.channel, Invariants: faulted.invariants}

	var matched, total int
	for i, q := range faulted.queries {
		recall := 1.0
		if q.spec.Recallable() && i < len(oracle.queries) {
			want := oracle.queries[i].keys
			if len(want) > 0 {
				m := 0
				for k := range q.keys {
					if want[k] {
						m++
					}
				}
				matched += m
				total += len(want)
				recall = float64(m) / float64(len(want))
			}
		}
		rep.PerQueryRecall = append(rep.PerQueryRecall, recall)
	}
	rep.Recall = 1.0
	if total > 0 {
		rep.Recall = float64(matched) / float64(total)
	}
	rep.Invariants = append(rep.Invariants, Invariant{
		Name:   "recall-floor",
		Pass:   rep.Recall >= cfg.RecallFloor,
		Detail: fmt.Sprintf("%.1f%% of %d oracle results (floor %.1f%%)", 100*rep.Recall, total, 100*cfg.RecallFloor),
	})

	if cfg.PaperQuery {
		rep.Invariants = append(rep.Invariants, checkReference(cfg, oracle.queries))
	}

	if cfg.PublishFlood > 0 && len(oracle.queries) == len(faulted.queries) && len(faulted.queries) > 0 {
		// The flood scan is the last query of both runs. The bounded run
		// may only be missing oracle results it evicted or dropped (plus
		// a small slack for items still mid-throttle-retry at scan time):
		// quotas forget by eviction, never silently.
		oracleF := oracle.queries[len(oracle.queries)-1].keys
		faultF := faulted.queries[len(faulted.queries)-1].keys
		matched := 0
		for k := range faultF {
			if oracleF[k] {
				matched++
			}
		}
		missing := int64(len(oracleF) - matched)
		slack := int64(len(oracleF) / 20)
		if slack < 5 {
			slack = 5
		}
		rep.Flood = &FloodReport{
			Published:  cfg.PublishFlood,
			OracleLive: len(oracleF),
			Matched:    matched,
			Evicted:    faulted.floodEvicted,
			Dropped:    faulted.floodDropped,
			Throttled:  faulted.floodThrottled,
			Delayed:    faulted.floodDelayed,
			PeakBytes:  faulted.budgetPeak,
			Quota:      floodQuota,
		}
		rep.Invariants = append(rep.Invariants, Invariant{
			Name: "flood-recall-vs-evicted",
			Pass: missing <= faulted.floodEvicted+faulted.floodDropped+slack,
			Detail: fmt.Sprintf("%d of %d oracle flood results missing; %d evicted + %d dropped + %d slack allowed",
				missing, len(oracleF), faulted.floodEvicted, faulted.floodDropped, slack),
		})
	}

	rep.TraceHash = traceHash(faulted.stats, faulted.queries)
	if cfg.VerifyReplay {
		replay := runScenario(cfg, false)
		h := traceHash(replay.stats, replay.queries)
		rep.Invariants = append(rep.Invariants, Invariant{
			Name:   "replay-deterministic",
			Pass:   h == rep.TraceHash,
			Detail: fmt.Sprintf("trace %016x vs replay %016x", rep.TraceHash, h),
		})
	}
	return rep
}

// runScenario executes one simulated run of the scenario; faultless
// disables every fault (the oracle).
func runScenario(cfg Config, faultless bool) *scenarioResult {
	opts := pier.DefaultOptions()
	opts.DHT = cfg.DHT
	opts.CANConfig.Maintenance = true
	opts.ChordConfig.Maintenance = true
	// Tuned for churn, Figure 6 included: dissemination must survive
	// not-yet-detected failures.
	opts.ProviderConfig.RobustMulticast = true
	// Result channel: a smaller batch and a deliberately tiny credit
	// window — the workload spreads each query's results over all
	// nodes, so only a window smaller than a typical per-sender share
	// makes senders actually exhaust it; replenishment grants then flow
	// through the loss/partition schedules, lost grants exercise the
	// executor's stall-refresh path, and the queries-terminate invariant
	// doubles as the channel's no-deadlock check.
	opts.EngineConfig.ResultBatch = 16
	opts.EngineConfig.ResultCredit = 6
	if cfg.PublishFlood > 0 && !faultless {
		// Only the faulted run is bounded: the oracle's unbounded stores
		// define what a node with enough memory would have answered, so
		// the recall gap is exactly the cost of the quota. Backoffs are
		// deterministic (no jitter), keeping the replay hash stable.
		opts.ProviderConfig.Quota = storage.QuotaConfig{Quotas: map[string]int64{FloodNS: floodQuota}}
	}
	if cfg.StatsInterval > 0 {
		opts.Stats.Interval = cfg.StatsInterval
	}
	if cfg.RangeQueries {
		opts.Index.Interval = cfg.indexInterval()
	}
	sn := pier.NewSimNetwork(cfg.Nodes, topology.NewFullMesh(), cfg.Seed, opts)
	if !faultless {
		sn.SetLoss(cfg.BaseLoss)
	}

	// The driver (node 0) stands in for the paper's data wrappers: it
	// loads every tuple and renews each on the refresh period with a
	// per-tuple phase, restoring items lost to failed storage nodes.
	tables := cfg.tables()
	lifetime := 2 * cfg.RefreshPeriod
	type pub struct {
		ns, rid string
		iid     int64
		t       *core.Tuple
	}
	var pubs []pub
	for i, r := range tables.R {
		pubs = append(pubs, pub{"R", core.ValueString(r.Vals[workload.RPkey]), int64(i), r})
	}
	for i, s := range tables.S {
		pubs = append(pubs, pub{"S", core.ValueString(s.Vals[workload.SPkey]), int64(i + len(tables.R)), s})
	}
	for _, p := range pubs {
		sn.Load(p.ns, p.rid, p.iid, p.t, lifetime)
	}
	driver := sn.Net.Node(0)
	dnode := sn.Nodes[0]
	if cfg.RangeQueries {
		// The driver creates the index before the warmup; every node
		// backfills its local S tuples and the warmup's maintenance
		// ticks settle the trie. The definition is renewed by the
		// driver's index agent while it runs.
		err := dnode.Indexes().Create(index.Def{
			Name: RangeIndexName, Table: "S", Col: "num2", ColIdx: workload.SNum2,
		}, 3*cfg.indexInterval())
		if err != nil {
			panic(err)
		}
	}
	res := &scenarioResult{}
	teardown := false
	var renewStops []func()
	for i, p := range pubs {
		p := p
		phase := time.Duration(float64(cfg.RefreshPeriod) * float64(i) / float64(len(pubs)))
		driver.After(phase, func() {
			if teardown {
				return
			}
			dnode.Renew(p.ns, p.rid, p.iid, p.t, lifetime)
			renewStops = append(renewStops, env.Every(driver, cfg.RefreshPeriod, func() {
				dnode.Renew(p.ns, p.rid, p.iid, p.t, lifetime)
			}))
		})
	}

	if cfg.PublishFlood > 0 {
		// The flood: padded tuples into a handful of hot keys, spread
		// over the first half of the active phase, never renewed. The
		// lifetime outlives the final flood scan but not the teardown
		// tail, so soft-state-expires still closes the run.
		floodLifetime := cfg.Duration() + 2*cfg.RefreshPeriod
		spread := cfg.Duration() / 2
		for i := 0; i < cfg.PublishFlood; i++ {
			i := i
			at := warmup + time.Duration(float64(spread)*float64(i)/float64(cfg.PublishFlood))
			driver.After(at, func() {
				if teardown {
					return
				}
				t := &core.Tuple{Rel: FloodNS, Vals: []core.Value{int64(i)}, Pad: 200}
				dnode.Publish(FloodNS, fmt.Sprintf("f%d", i%floodHotKeys), int64(1<<20+i), t, floodLifetime)
			})
		}
		if !faultless {
			// Budget probes: every live node's flood-namespace occupancy
			// must stay within the quota at every sample, not just at the
			// end — eviction must keep up with the flood, not lag it.
			renewStops = append(renewStops, env.Every(driver, 15*time.Second, func() {
				for i, n := range sn.Nodes {
					if !sn.Alive(i) {
						continue
					}
					res.budgetProbes++
					got := n.Provider().Store().Usage().ByNamespace[FloodNS]
					if got > res.budgetPeak {
						res.budgetPeak = got
					}
					if got > floodQuota {
						res.budgetViolations++
					}
				}
			}))
		}
	}

	// Fault schedule: victims and partition membership are drawn from a
	// dedicated RNG at execution time — execution order is
	// deterministic, so the draws are too.
	if !faultless {
		crng := rand.New(rand.NewSource(cfg.Seed ^ 0x11c7a05))
		for _, ev := range BuildSchedule(cfg) {
			ev := ev
			driver.After(warmup+ev.At, func() {
				if !teardown {
					execEvent(sn, cfg, ev, crng)
				}
			})
		}
	}

	sn.RunFor(warmup)

	for _, spec := range cfg.querySpecs() {
		spec := spec
		out := queryOutcome{spec: spec, keys: map[string]bool{}}
		plan := spec.Plan(cfg.QueryEvery)
		if cfg.TraceQueries {
			plan.Trace = true
		}
		id, err := dnode.Query(plan, func(t *core.Tuple, w int) { out.keys[spec.Key(t, w)] = true })
		out.id, out.err = id, err
		if err == nil && spec.CancelEarly {
			sn.RunFor(cfg.QueryEvery / 2)
			dnode.Cancel(id)
			sn.RunFor(cfg.QueryEvery - cfg.QueryEvery/2)
		} else {
			sn.RunFor(cfg.QueryEvery)
		}
		res.queries = append(res.queries, out)
	}

	if cfg.PublishFlood > 0 {
		// The flood scan: a select-all over the flood namespace, run by
		// both the oracle and the bounded run as their final query. Its
		// keys feed the flood-recall-vs-evicted comparison and fold into
		// the replay fingerprint like every other query's.
		out := queryOutcome{spec: QuerySpec{Kind: QFlood}, keys: map[string]bool{}}
		plan := out.spec.Plan(cfg.QueryEvery)
		if cfg.TraceQueries {
			plan.Trace = true
		}
		id, err := dnode.Query(plan, func(t *core.Tuple, w int) { out.keys[out.spec.Key(t, w)] = true })
		out.id, out.err = id, err
		sn.RunFor(cfg.QueryEvery)
		res.queries = append(res.queries, out)
	}

	// The oracle exists only to provide per-query reference results,
	// all collected by now; skip its settle/teardown tail (a third of
	// the total simulation work) — its invariants are never read.
	if faultless {
		res.stats = sn.Net.Stats()
		return res
	}

	// Active phase over: lift remaining faults and let failure
	// detection and takeovers settle.
	sn.Heal()
	sn.SetLoss(0)
	sn.RunFor(45 * time.Second)

	var catalogInv *Invariant
	if cfg.StatsInterval > 0 {
		catalogInv = checkCatalog(sn, len(tables.R))
	}

	// Teardown: stop the producers (renewals) and the catalog loops.
	// Everything still stored anywhere is soft state that must now
	// expire on its own — including items handed off by graceful
	// leaves and state belonging to long-gone queries.
	teardown = true
	for _, stop := range renewStops {
		stop()
	}
	for i, n := range sn.Nodes {
		if sn.Alive(i) {
			n.Stats().Stop()
			n.Indexes().Stop()
		}
	}
	tail := 2 * cfg.RefreshPeriod
	if t := 3 * cfg.StatsInterval; t > tail {
		tail = t
	}
	if cfg.RangeQueries {
		// Index entries die with their tuples (2×refresh); the interior
		// markers above them were last renewed just before the stop and
		// take up to their full lifetime on top.
		if t := 2*cfg.RefreshPeriod + 3*cfg.indexInterval(); t > tail {
			tail = t
		}
	}
	if cfg.QueryEvery > tail {
		tail = cfg.QueryEvery
	}
	sn.RunFor(tail + time.Minute)

	res.stats = sn.Net.Stats()
	for i, n := range sn.Nodes {
		if sn.Alive(i) {
			qs := n.QueryStats()
			res.channel.ResultBatches += qs.ResultBatches
			res.channel.ResultTuples += qs.ResultTuples
			res.channel.CreditGrants += qs.CreditGrants
			res.channel.CreditStalls += qs.CreditStalls
			res.channel.BloomFallbacks += qs.BloomFallbacks
			res.channel.BloomComplete += qs.BloomComplete
			res.channel.BloomLateFilters += qs.BloomLateFilters
			res.channel.BloomOvercovered += qs.BloomOvercovered
			if cfg.PublishFlood > 0 {
				ss := n.StorageStats()
				res.floodEvicted += ss.EvictedByNS[FloodNS]
				res.floodDropped += ss.PutsDropped
				res.floodThrottled += ss.PutsThrottled
				res.floodDelayed += ss.PutsDelayed
			}
		}
	}
	res.invariants = buildInvariants(sn, res, catalogInv)
	if cfg.PublishFlood > 0 {
		res.invariants = append(res.invariants,
			Invariant{
				Name: "storage-within-budget",
				Pass: res.budgetProbes > 0 && res.budgetViolations == 0,
				Detail: fmt.Sprintf("%d probes, %d over budget, peak %d of %d bytes",
					res.budgetProbes, res.budgetViolations, res.budgetPeak, floodQuota),
			},
			Invariant{
				Name: "flood-backpressure-engaged",
				Pass: res.floodThrottled > 0 && res.floodDelayed > 0,
				Detail: fmt.Sprintf("%d puts throttled, %d delayed, %d dropped, %d evicted",
					res.floodThrottled, res.floodDelayed, res.floodDropped, res.floodEvicted),
			},
		)
	}
	if cfg.TraceQueries {
		res.invariants = append(res.invariants, checkTraces(sn, res))
	}
	return res
}

// checkTraces asserts every accepted traced query left a finished,
// non-empty retained trace on the driver once its collector closed —
// cancel, TTL expiry, and churn included.
func checkTraces(sn *pier.SimNetwork, res *scenarioResult) Invariant {
	missing, empty, unfinished, spans := 0, 0, 0, 0
	for _, q := range res.queries {
		if q.err != nil {
			continue
		}
		tr, ok := sn.Nodes[0].Trace(q.id)
		if !ok {
			missing++
			continue
		}
		if len(tr.Spans) == 0 {
			empty++
		}
		if tr.Finished == 0 {
			unfinished++
		}
		spans += len(tr.Spans)
	}
	return Invariant{
		Name: "traced-queries-leave-traces",
		Pass: missing == 0 && empty == 0 && unfinished == 0,
		Detail: fmt.Sprintf("%d spans across %d queries (%d missing, %d empty, %d unfinished)",
			spans, len(res.queries), missing, empty, unfinished),
	}
}

// execEvent applies one fault event to the running network.
func execEvent(sn *pier.SimNetwork, cfg Config, ev Event, rng *rand.Rand) {
	switch ev.Kind {
	case EvCrash:
		if v := pickLive(sn, rng); v > 0 {
			sn.Restart(v, 0)
		}
	case EvLeave:
		if v := pickLive(sn, rng); v > 0 {
			sn.Leave(v)
			sn.Join(0)
		}
	case EvPartitionStart:
		lives := liveNonDriver(sn)
		rng.Shuffle(len(lives), func(i, j int) { lives[i], lives[j] = lives[j], lives[i] })
		k := int(ev.Frac * float64(len(lives)))
		if k < 1 {
			k = 1
		}
		if k > len(lives) {
			k = len(lives)
		}
		sn.Partition(lives[:k])
	case EvPartitionEnd:
		sn.Heal()
	case EvLossStart:
		sn.SetLoss(ev.Prob)
	case EvLossEnd:
		sn.SetLoss(cfg.BaseLoss)
	}
}

// pickLive draws a random live non-driver node index, or -1.
func pickLive(sn *pier.SimNetwork, rng *rand.Rand) int {
	for tries := 0; tries < 64; tries++ {
		v := 1 + rng.Intn(len(sn.Nodes)-1)
		if sn.Alive(v) {
			return v
		}
	}
	return -1
}

// liveNonDriver lists the live node indices except the driver.
func liveNonDriver(sn *pier.SimNetwork) []int {
	var out []int
	for i := 1; i < len(sn.Nodes); i++ {
		if sn.Alive(i) {
			out = append(out, i)
		}
	}
	return out
}

// checkReference holds the oracle to the paper query's true answer:
// every fault-free run of paperJoin must return exactly the pairs of
// workload.ReferenceJoin, so recall is a fraction of that answer and
// not of a second run of the same engine.
func checkReference(cfg Config, oracle []queryOutcome) Invariant {
	want := map[string]bool{}
	c1, c2, c3 := workload.Constants(paperJoin.SelR, paperJoin.SelS, paperJoin.SelF)
	for _, p := range cfg.tables().ReferenceJoin(c1, c2, c3) {
		want[paperJoin.Key(&core.Tuple{Vals: []core.Value{p[0], p[1]}}, 0)] = true
	}
	pass, got := len(oracle) == cfg.Queries, 0
	for _, q := range oracle {
		got += len(q.keys)
		pass = pass && len(q.keys) == len(want)
		for k := range q.keys {
			pass = pass && want[k]
		}
	}
	return Invariant{
		Name:   "oracle-matches-reference",
		Pass:   pass,
		Detail: fmt.Sprintf("%d oracle results over %d queries; %d reference pairs each", got, len(oracle), len(want)),
	}
}

// checkCatalog asserts the statistics catalog re-converged after the
// churn: a fresh fetch of R's table statistics answers, with a
// cardinality within a generous band of the loaded relation (churn
// loses tuples between renews; the band tolerates that).
func checkCatalog(sn *pier.SimNetwork, rCount int) *Invariant {
	var got opt.TableStats
	var ok, done bool
	sn.Nodes[0].Stats().Fetch("R", func(ts opt.TableStats, k bool) { got, ok, done = ts, k, true })
	sn.RunUntil(30*time.Second, func() bool { return done })
	pass := done && ok && got.Tuples >= float64(rCount)/5 && got.Tuples <= float64(rCount)*5
	return &Invariant{
		Name:   "catalog-reconverges",
		Pass:   pass,
		Detail: fmt.Sprintf("R estimate %.0f vs loaded %d", got.Tuples, rCount),
	}
}

// buildInvariants evaluates the end-of-run checkers.
func buildInvariants(sn *pier.SimNetwork, res *scenarioResult, catalogInv *Invariant) []Invariant {
	var invs []Invariant

	accepted := 0
	for _, q := range res.queries {
		if q.err == nil {
			accepted++
		}
	}
	invs = append(invs, Invariant{
		Name:   "queries-accepted",
		Pass:   accepted == len(res.queries),
		Detail: fmt.Sprintf("%d/%d plans accepted", accepted, len(res.queries)),
	})

	// Termination: every TTL has long passed; no executor may survive
	// anywhere, and the driver must hold no open collectors.
	execs := 0
	for i, n := range sn.Nodes {
		if sn.Alive(i) {
			execs += n.Engine().ActiveExecs()
		}
	}
	invs = append(invs, Invariant{
		Name:   "queries-terminate",
		Pass:   execs == 0 && sn.Nodes[0].Engine().OpenCollectors() == 0,
		Detail: fmt.Sprintf("%d live executors, %d open collectors", execs, sn.Nodes[0].Engine().OpenCollectors()),
	})

	// Soft state: with producers stopped and lifetimes elapsed, every
	// live store must be empty.
	items := 0
	for i, n := range sn.Nodes {
		if sn.Alive(i) {
			items += n.Provider().Store().TotalLen()
		}
	}
	invs = append(invs, Invariant{
		Name:   "soft-state-expires",
		Pass:   items == 0,
		Detail: fmt.Sprintf("%d items still stored on live nodes", items),
	})

	stats := sn.Net.Totals()
	invs = append(invs, Invariant{
		Name:   "no-delivery-to-dead",
		Pass:   stats.DeliveredToDead == 0,
		Detail: fmt.Sprintf("%d deliveries dispatched to dead nodes", stats.DeliveredToDead),
	})

	if catalogInv != nil {
		invs = append(invs, *catalogInv)
	}
	return invs
}
