package experiments

// The adaptive-planner experiment: does the self-maintaining statistics
// catalog plus the §7 cost model actually pick good plans? Three join
// workloads are constructed so that a different strategy wins each —
// Fetch Matches when the inner table is hashed on the join attribute,
// symmetric hash for a many-to-many join of small tuples, and the Bloom
// rewrite when few tuples have join partners. Each workload runs once
// per fixed feasible strategy and once with AutoStrategy over a warmed
// catalog; the adaptive run must land on (or beat) the best fixed
// strategy without being told anything.

import (
	"fmt"
	"math/rand"
	"time"

	"pier"
	"pier/internal/core"
	"pier/internal/opt"
	"pier/internal/sql"
	"pier/internal/topology"
	"pier/internal/workload"
)

// AdaptiveConfig parameterizes the adaptive-vs-fixed comparison.
type AdaptiveConfig struct {
	Nodes   int
	STuples int // |S|; |R| = 10 × |S|
	Seed    int64
}

// Each run's time limit, and the adaptive runs' catalog refresh period.
const adaptiveLimit, adaptiveStatsInterval = 4 * time.Hour, 30 * time.Second

// DefaultAdaptive returns the scaled-down (or paper-scale) defaults.
func DefaultAdaptive(full bool) AdaptiveConfig {
	cfg := AdaptiveConfig{Nodes: 32, STuples: 150, Seed: 23}
	if full {
		cfg.Nodes, cfg.STuples = 128, 600
	}
	return cfg
}

// AdaptiveWorkload is one operating point: a generator for both
// relations, the query plan over them (strategy left at the default),
// and the exact expected result count.
type AdaptiveWorkload struct {
	Key   string
	Build func(cfg AdaptiveConfig) (R, S []*core.Tuple, plan *core.Plan, expected int)
}

// AdaptiveRun is one measured (workload, strategy) cell.
type AdaptiveRun struct {
	Strategy   core.Strategy
	Adaptive   bool
	Received   int
	Expected   int
	TimeToLast time.Duration
	StrategyMB float64
}

// AdaptiveWorkloads returns the three operating points.
func AdaptiveWorkloads() []AdaptiveWorkload {
	return []AdaptiveWorkload{
		{Key: "uniform", Build: buildUniform},     // pkey join, inner hashed on the join attribute
		{Key: "skewed", Build: buildSkewed},       // many-to-many join of small tuples
		{Key: "selective", Build: buildSelective}, // sparse-match join, Bloom-favoring
	}
}

// buildUniform is the paper's §5.1 workload: R joins S on S's primary
// key, 50% selections, ~1 KB result tuples. Fetch Matches is feasible
// and moves no R bytes at all, so it should dominate.
func buildUniform(cfg AdaptiveConfig) ([]*core.Tuple, []*core.Tuple, *core.Plan, int) {
	tables := workload.Generate(workload.Config{STuples: cfg.STuples, Seed: cfg.Seed + 1})
	c1, c2, c3 := workload.Constants(0.5, 0.5, 0.5)
	plan := workload.JoinPlan(core.SymmetricHash, c1, c2, c3)
	plan.BloomBits = bloomBitsFor(2 * cfg.STuples)
	return tables.R, tables.S, plan, len(tables.ReferenceJoin(c1, c2, c3))
}

// skewedKey draws a join key from a skewed domain: 80% of tuples land
// in the first 20 values of [0, 100).
func skewedKey(rng *rand.Rand) int64 {
	if rng.Float64() < 0.8 {
		return int64(rng.Intn(20))
	}
	return int64(20 + rng.Intn(80))
}

// buildSkewed joins two pad-free relations many-to-many on a skewed
// non-key column, with weak (90%) selections. Fetch Matches is
// infeasible (the inner table is not hashed on the join attribute);
// with small tuples and plentiful matches, rehashing everything once
// (symmetric hash) beats both rewrites: the semi-join's per-pair
// fetches cost more than the tuples they save, and Bloom filters have
// almost nothing to prune.
func buildSkewed(cfg AdaptiveConfig) ([]*core.Tuple, []*core.Tuple, *core.Plan, int) {
	rng := rand.New(rand.NewSource(cfg.Seed + 2))
	nR, nS := 10*cfg.STuples, cfg.STuples
	R := make([]*core.Tuple, nR)
	for i := range R {
		R[i] = &core.Tuple{Rel: "R", Vals: []core.Value{
			int64(i), skewedKey(rng), int64(rng.Intn(workload.NumRange)),
		}}
	}
	S := make([]*core.Tuple, nS)
	for i := range S {
		S[i] = &core.Tuple{Rel: "S", Vals: []core.Value{
			int64(i), skewedKey(rng), int64(rng.Intn(workload.NumRange)),
		}}
	}
	c, _, _ := workload.Constants(0.9, 0.9, 0.5)
	plan := joinOnCol1(c)
	plan.BloomBits = bloomBitsFor(2 * cfg.STuples)
	return R, S, plan, countJoinOnCol1(R, S, c)
}

// buildSelective joins on a sparse tag column: the domain is 50×|S|
// wide, so only ~2% of R tuples have a partner. R carries the ~1 KB
// pad, making its rehash the dominant cost — exactly what the Bloom
// rewrite prunes. Fetch Matches is again infeasible (non-key join).
func buildSelective(cfg AdaptiveConfig) ([]*core.Tuple, []*core.Tuple, *core.Plan, int) {
	rng := rand.New(rand.NewSource(cfg.Seed + 3))
	nR, nS := 10*cfg.STuples, cfg.STuples
	domain := 50 * cfg.STuples
	R := make([]*core.Tuple, nR)
	for i := range R {
		R[i] = &core.Tuple{Rel: "R", Vals: []core.Value{
			int64(i), int64(rng.Intn(domain)), int64(rng.Intn(workload.NumRange)),
		}, Pad: 1024 - 60}
	}
	S := make([]*core.Tuple, nS)
	for i := range S {
		S[i] = &core.Tuple{Rel: "S", Vals: []core.Value{
			int64(i), int64(rng.Intn(domain)), int64(rng.Intn(workload.NumRange)),
		}}
	}
	c, _, _ := workload.Constants(0.5, 0.5, 0.5)
	plan := joinOnCol1(c)
	plan.BloomBits = bloomBitsFor(2 * cfg.STuples)
	return R, S, plan, countJoinOnCol1(R, S, c)
}

// colCatalog describes the custom workloads' R and S: a primary key,
// the join column k and the selection column num.
var colCatalog = sql.Catalog{
	"R": {Name: "R", Cols: []string{"pkey", "k", "num"}, Key: "pkey"},
	"S": {Name: "S", Cols: []string{"pkey", "k", "num"}, Key: "pkey"},
}

// joinOnCol1 plans the shared query of the custom workloads: an
// equi-join on k with `num > c` on both sides, emitting both primary
// keys.
func joinOnCol1(c int64) *core.Plan {
	return sql.MustPlan(fmt.Sprintf(`SELECT R.pkey, S.pkey FROM R, S
		WHERE R.k = S.k AND R.num > %d AND S.num > %[1]d USING STRATEGY 'symmetric hash'`, c), colCatalog)
}

// countJoinOnCol1 computes the exact expected result count.
func countJoinOnCol1(R, S []*core.Tuple, c int64) int {
	byKey := map[int64]int{}
	for _, s := range S {
		if s.Vals[2].(int64) > c {
			byKey[s.Vals[1].(int64)]++
		}
	}
	n := 0
	for _, r := range R {
		if r.Vals[2].(int64) > c {
			n += byKey[r.Vals[1].(int64)]
		}
	}
	return n
}

// feasibleStrategies lists the fixed strategies that can correctly
// execute the plan (Fetch Matches needs the inner table hashed on the
// join attribute).
func feasibleStrategies(plan *core.Plan) []core.Strategy {
	out := []core.Strategy{core.SymmetricHash}
	t1 := plan.Tables[1]
	if len(t1.JoinCols) == 1 && t1.JoinCols[0] == t1.RIDCol && t1.RIDCol >= 0 {
		out = append(out, core.FetchMatches)
	}
	out = append(out, core.SymmetricSemiJoin, core.BloomJoin)
	return out
}

// RunAdaptiveCase measures one (workload, strategy) cell. With adaptive
// set, the catalog maintenance loop runs during a warm-up phase, the
// initiator pre-fetches both tables' statistics, and the query is
// submitted with AutoStrategy so the node's catalog picks the strategy;
// the loop is then stopped and traffic counters reset, so the measured
// bytes are the chosen strategy's own (stats maintenance excluded, like
// result delivery is in Figure 4).
func RunAdaptiveCase(cfg AdaptiveConfig, w AdaptiveWorkload, fixed core.Strategy, adaptive bool) AdaptiveRun {
	opts := pier.DefaultOptions()
	if adaptive {
		opts.Stats.Interval = adaptiveStatsInterval
	}
	R, S, plan, expected := w.Build(cfg)
	sn := deploy(cfg.Nodes, topology.NewFullMesh(), cfg.Seed, opts, simTable{"R", 0, R}, simTable{"S", 0, S})
	plan.TTL = adaptiveLimit

	if adaptive {
		plan.AutoStrategy = true
		// One refresh tick publishes every node's summaries; then warm
		// the initiator's cache explicitly and freeze the catalog so the
		// measurement contains only query traffic.
		sn.RunFor(adaptiveStatsInterval + 10*time.Second)
		fetched := 0
		sn.Nodes[0].Stats().Fetch("R", func(opt.TableStats, bool) { fetched++ })
		sn.Nodes[0].Stats().Fetch("S", func(opt.TableStats, bool) { fetched++ })
		sn.RunUntil(time.Minute, func() bool { return fetched == 2 })
		for _, nd := range sn.Nodes {
			nd.Stats().Stop()
		}
	} else {
		plan.Strategy = fixed
	}

	m := measure(sn, plan, expected, adaptiveLimit)
	defer sn.Nodes[0].Cancel(m.id)
	sn.Net.Drain()
	return AdaptiveRun{
		Strategy:   plan.Strategy, // the catalog's pick, for adaptive runs
		Adaptive:   adaptive,
		Received:   len(m.arrivals),
		Expected:   expected,
		TimeToLast: m.last(),
		StrategyMB: float64(sn.Net.Totals().Bytes-m.deliveryBytes(sn)) / 1e6,
	}
}

// AdaptiveResult bundles one workload's comparison.
type AdaptiveResult struct {
	Workload AdaptiveWorkload
	Fixed    []AdaptiveRun
	Adaptive AdaptiveRun
}

// BestFixed returns the lowest strategy-traffic fixed run with full
// recall.
func (r AdaptiveResult) BestFixed() (AdaptiveRun, bool) {
	best, ok := AdaptiveRun{}, false
	for _, run := range r.Fixed {
		if run.Received != run.Expected {
			continue
		}
		if !ok || run.StrategyMB < best.StrategyMB {
			best, ok = run, true
		}
	}
	return best, ok
}

// Adaptive runs the full comparison and renders the printable table.
func Adaptive(cfg AdaptiveConfig) ([]AdaptiveResult, *Table) {
	var results []AdaptiveResult
	for _, w := range AdaptiveWorkloads() {
		_, _, plan, _ := w.Build(cfg)
		res := AdaptiveResult{Workload: w}
		for _, s := range feasibleStrategies(plan) {
			res.Fixed = append(res.Fixed, RunAdaptiveCase(cfg, w, s, false))
		}
		res.Adaptive = RunAdaptiveCase(cfg, w, 0, true)
		results = append(results, res)
	}

	tbl := &Table{
		Title: "Adaptive planner vs fixed strategies",
		Note: fmt.Sprintf("n=%d, |S|=%d, |R|=%d; strategy MB excludes result delivery",
			cfg.Nodes, cfg.STuples, 10*cfg.STuples),
		Headers: []string{"workload", "strategy", "recall", "strategy MB", "to last (s)"},
	}
	row := func(w AdaptiveWorkload, run AdaptiveRun) {
		name := run.Strategy.String()
		if run.Adaptive {
			name = "auto → " + name
		}
		tbl.Rows = append(tbl.Rows, []string{
			w.Key, name,
			fmt.Sprintf("%d/%d", run.Received, run.Expected),
			fmt.Sprintf("%.3f", run.StrategyMB),
			secs(run.TimeToLast),
		})
	}
	for _, res := range results {
		for _, run := range res.Fixed {
			row(res.Workload, run)
		}
		row(res.Workload, res.Adaptive)
	}
	return results, tbl
}
