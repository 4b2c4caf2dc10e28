// Package stats is PIER's self-maintaining distributed statistics
// catalog — the missing half of the paper's §7 "Catalogs and Query
// Optimization" challenge. The cost-based optimizer (internal/opt) can
// rank the four join strategies, but only if someone supplies table
// cardinalities, tuple widths, distinct-key counts, and deployment
// parameters. This package makes the system supply them itself:
//
//   - each node periodically samples its local soft-state store and
//     publishes a per-table Summary (tuple count, total payload bytes,
//     KMV distinct-key sketch) into the reserved CatalogNS namespace of
//     the DHT, as soft state with a lifetime a few refresh intervals
//     long — stale nodes simply age out, exactly like any other PIER
//     data;
//   - readers Get the root key and merge what they find into live
//     opt.TableStats, cached per table;
//   - the deployment inputs (opt.NetStats) are read from work the node
//     already does: the overlay size from routing-layer geometry, the
//     path length from the router's lookup counters, and the per-hop
//     latency from the provider's timed put and get lookups, so the
//     catalog sends nothing of its own to measure the network;
//   - observed query cardinalities reported by the engine feed back
//     into per-table-pair match-fraction corrections, so estimates that
//     start wrong converge instead of staying wrong.
//
// Everything is best-effort soft state: a cold catalog answers nothing
// and callers fall back to the default strategy; a warmed catalog makes
// opt.Choose automatic.
package stats

import (
	"crypto/sha1"
	"encoding/binary"
	"strings"
	"time"

	"pier/internal/core"
	"pier/internal/dht/provider"
	"pier/internal/dht/storage"
	"pier/internal/env"
	"pier/internal/opt"
	"pier/internal/wire"
)

// CatalogNS is the reserved DHT namespace holding statistics summaries.
const CatalogNS = "pier.stats"

// Config controls one node's catalog agent. The rest follows from it:
// published summaries live 3×Interval and fetched ones are cached for
// Interval (3 minutes and 1 minute when the loop is off).
type Config struct {
	// Interval is the refresh period: how often the node samples its
	// local store, republishes summaries, and re-fetches cached tables.
	// Zero disables the maintenance loop (the catalog then only answers
	// from explicit refreshes).
	Interval time.Duration
}

// Enabled reports whether the maintenance loop should run.
func (c Config) Enabled() bool { return c.Interval > 0 }

const (
	// sampleLimit caps how many local tuples a choose-time selectivity
	// sample evaluates per table.
	sampleLimit = 256

	// objective is what automatic strategy choice minimizes: traffic,
	// the paper's wide-area concern.
	objective = opt.MinTraffic
)

// Summary is one (partial) statistics record for a table: a leaf holds
// one node's local view; a lookup merges leaves into a table-wide
// view.
type Summary struct {
	// Table is the namespace the summary describes.
	Table string
	// Nodes counts the node summaries merged in (1 at a leaf).
	Nodes int64
	// Tuples is the (summed) stored tuple count.
	Tuples int64
	// Bytes is the (summed) payload bytes, WireSize-accounted.
	Bytes int64
	// Keys sketches the distinct resourceIDs (≈ distinct primary keys).
	Keys *Sketch
}

// WireSize implements env.Message.
func (s *Summary) WireSize() int { return wire.Size(s) }

// Merge folds another summary into this one.
func (s *Summary) Merge(o *Summary) {
	s.Nodes += o.Nodes
	s.Tuples += o.Tuples
	s.Bytes += o.Bytes
	if o.Keys != nil {
		if s.Keys == nil {
			s.Keys = o.Keys.Clone()
		} else {
			s.Keys.Merge(o.Keys)
		}
	}
}

// TableStats converts the merged summary into optimizer inputs.
// Selectivity and HashedOnJoinAttr are query-specific and left for the
// caller.
func (s *Summary) TableStats() opt.TableStats {
	ts := opt.TableStats{Tuples: float64(s.Tuples)}
	if s.Tuples > 0 {
		ts.TupleBytes = float64(s.Bytes) / float64(s.Tuples)
	}
	if s.Keys != nil {
		ts.DistinctJoinKeys = s.Keys.Estimate()
	}
	return ts
}

// Measurable reports whether a namespace is covered by the catalog:
// reserved pier.* namespaces and query-temporary namespaces (q<hex>,
// q<hex>.agg, q<hex>.bloomN) are not. Application tables whose name is
// "q" followed only by hex digits collide with the query-namespace
// convention and are skipped too.
func Measurable(ns string) bool {
	if strings.HasPrefix(ns, "pier.") {
		return false
	}
	if len(ns) < 2 || ns[0] != 'q' {
		return true
	}
	i := 1
	for i < len(ns) && isHex(ns[i]) {
		i++
	}
	if i == 1 {
		return true // "q" followed by a non-hex rune: a real table
	}
	return !(i == len(ns) || ns[i] == '.')
}

func isHex(b byte) bool {
	return b >= '0' && b <= '9' || b >= 'a' && b <= 'f'
}

type cacheEntry struct {
	stats opt.TableStats
	at    time.Time
}

// Catalog is one node's statistics agent: publisher of the node's local
// summaries, reader cache, reader of the deployment's inputs, and
// feedback sink. Like all node state it runs on the node's
// single-threaded event loop.
type Catalog struct {
	env  env.Env
	prov *provider.Provider
	cfg  Config

	// lifetime bounds published summaries, so a node must miss several
	// refreshes before its contribution ages out; never zero, which
	// storage would treat as immortal. cacheTTL bounds how long a
	// fetched TableStats entry answers lookups. New derives both from
	// cfg.Interval.
	lifetime time.Duration
	cacheTTL time.Duration

	nodeIID int64
	stop    func()

	cache    map[string]cacheEntry
	fetching map[string]bool

	// match holds per-table-pair match-fraction corrections learned
	// from observed query cardinalities ("t0\x00t1" keys).
	match map[string]float64
}

// New builds a catalog agent over the node's provider. Call Start to
// run the maintenance loop (when cfg.Interval > 0).
func New(e env.Env, prov *provider.Provider, cfg Config) *Catalog {
	h := sha1.Sum([]byte("stats:" + string(e.Addr())))
	// The cache/fetching/match maps are allocated lazily at first
	// insert: nodes that never plan a query keep them nil.
	c := &Catalog{
		env:      e,
		prov:     prov,
		cfg:      cfg,
		lifetime: 3 * time.Minute,
		cacheTTL: time.Minute,
		nodeIID:  int64(binary.BigEndian.Uint64(h[:8]) >> 1),
	}
	if cfg.Enabled() {
		c.lifetime, c.cacheTTL = 3*cfg.Interval, cfg.Interval
	}
	return c
}

// Config returns the agent's configuration.
func (c *Catalog) Config() Config { return c.cfg }

// Start launches the periodic maintenance loop; a no-op when the
// catalog is disabled or already running.
func (c *Catalog) Start() {
	if !c.cfg.Enabled() || c.stop != nil {
		return
	}
	c.stop = env.Every(c.env, c.cfg.Interval, c.Refresh)
}

// Stop halts the maintenance loop (published summaries age out on
// their own). Safe to call repeatedly.
func (c *Catalog) Stop() {
	if c.stop != nil {
		c.stop()
		c.stop = nil
	}
}

// Refresh runs one maintenance tick immediately: publish local
// summaries and re-fetch cached tables. A node with no local table and
// nothing cached sends nothing.
// Tests and operators can call it directly to warm the catalog
// without waiting for the loop.
func (c *Catalog) Refresh() {
	c.publishLocal()
	for _, table := range env.SortedKeys(c.cache) {
		c.Fetch(table, nil)
	}
}

// publishLocal summarizes every measurable local namespace and puts the
// summaries into the catalog namespace.
func (c *Catalog) publishLocal() {
	for _, ns := range c.prov.Store().Namespaces() {
		if !Measurable(ns) {
			continue
		}
		sum := c.localSummary(ns)
		if sum.Tuples == 0 {
			continue
		}
		c.prov.Put(CatalogNS, ns, c.nodeIID, sum, c.lifetime)
	}
}

// localSummary scans one namespace's local items.
func (c *Catalog) localSummary(ns string) *Summary {
	sum := &Summary{Table: ns, Nodes: 1, Keys: NewSketch(DefaultSketchK)}
	c.prov.Scan(ns, func(it *storage.Item) bool {
		sum.Tuples++
		if it.Payload != nil {
			sum.Bytes += int64(it.Payload.WireSize())
		}
		sum.Keys.Add(it.ResourceID)
		return true
	})
	return sum
}

// Fetch resolves a table's merged statistics from the DHT, fills the
// cache, and invokes cb (which may be nil) with the result; ok is false
// when the catalog holds nothing for the table.
func (c *Catalog) Fetch(table string, cb func(ts opt.TableStats, ok bool)) {
	if c.fetching[table] && cb == nil {
		return
	}
	if c.fetching == nil {
		c.fetching = make(map[string]bool)
	}
	c.fetching[table] = true
	c.prov.Get(CatalogNS, table, func(items []*storage.Item) {
		delete(c.fetching, table)
		var merged *Summary
		for _, it := range items {
			sum, ok := it.Payload.(*Summary)
			if !ok {
				continue
			}
			if merged == nil {
				cp := *sum
				cp.Keys = sum.Keys.Clone()
				merged = &cp
			} else {
				merged.Merge(sum)
			}
		}
		if merged == nil || merged.Tuples == 0 {
			if cb != nil {
				cb(opt.TableStats{}, false)
			}
			return
		}
		ts := merged.TableStats()
		if c.cache == nil {
			c.cache = make(map[string]cacheEntry)
		}
		c.cache[table] = cacheEntry{stats: ts, at: c.env.Now()}
		if cb != nil {
			cb(ts, true)
		}
	})
}

// Cached returns the table's statistics if a fresh fetch is in cache.
func (c *Catalog) Cached(table string) (opt.TableStats, bool) {
	e, ok := c.cache[table]
	if !ok || c.env.Now().Sub(e.at) > c.cacheTTL {
		return opt.TableStats{}, false
	}
	return e.stats, true
}

// CachedTables returns the names of tables whose summaries are fresh in
// this node's reader cache, sorted — the admin plane's catalog gauge.
func (c *Catalog) CachedTables() []string {
	var out []string
	for _, table := range env.SortedKeys(c.cache) {
		if _, ok := c.Cached(table); ok {
			out = append(out, table)
		}
	}
	return out
}

// NetStats assembles the optimizer's deployment inputs from what the
// node already does: the routing layer's overlay size estimate and
// measured path length, and the provider's timed put and get lookups,
// which give the per-hop latency. Zero fields (nothing looked up yet)
// fall back to opt.NetStats.norm defaults.
func (c *Catalog) NetStats() opt.NetStats {
	rt := c.prov.Router()
	ns := opt.NetStats{Nodes: rt.EstimateNodes()}
	if cnt, hops := rt.LookupStats(); cnt > 0 && hops > 0 {
		ns.LookupHops = float64(hops) / float64(cnt)
	}
	if n, total := c.prov.LookupTime(); n > 0 {
		// A lookup takes its path plus the owner's reply hop.
		ns.HopLatency = time.Duration(float64(total) / float64(n) / (ns.LookupHops + 1))
	}
	return ns
}

// --- automatic strategy choice -----------------------------------------

// hashedOnJoin reports the Fetch Matches precondition: the table's
// resourceID is exactly the join attribute.
func hashedOnJoin(tr core.TableRef) bool {
	return len(tr.JoinCols) == 1 && tr.RIDCol >= 0 && tr.JoinCols[0] == tr.RIDCol
}

// sampleSelectivity estimates a table filter's selectivity from the
// node's local items. Uniform hashing makes the local fraction of a
// relation an unbiased sample of the whole, so even one node's slice
// calibrates the predicate.
func (c *Catalog) sampleSelectivity(tr core.TableRef) float64 {
	sel, _ := c.sampleSelectivityOK(tr)
	return sel
}

// sampleSelectivityOK is sampleSelectivity with the sample size made
// visible: sampled is false when this node stores no tuples of the
// table at all, in which case the returned 1 is a worst-case
// placeholder, not an estimate. Callers that would make a pessimizing
// decision on it (ChooseAccess) should decline to answer instead.
func (c *Catalog) sampleSelectivityOK(tr core.TableRef) (sel float64, sampled bool) {
	if tr.Filter == nil {
		return 1, true
	}
	seen, passed := 0, 0
	c.prov.Scan(tr.NS, func(it *storage.Item) bool {
		t, ok := it.Payload.(*core.Tuple)
		if !ok {
			return true
		}
		seen++
		if core.Truthy(tr.Filter.Eval(t.Vals)) {
			passed++
		}
		return seen < sampleLimit
	})
	if seen == 0 {
		return 1, false // no local sample: assume nothing
	}
	sel = float64(passed) / float64(seen)
	if sel <= 0 {
		// Clamp away from zero: a small local sample missing every
		// match must not convince the optimizer the table is empty.
		sel = 0.5 / float64(seen)
	}
	return sel, true
}

func pairKey(p *core.Plan) string {
	return p.Tables[0].NS + "\x00" + p.Tables[1].NS
}

// JoinStats assembles the optimizer's join inputs for a two-table plan
// from cached table statistics, local selectivity samples, and learned
// match-fraction corrections. ok is false while either table is
// missing from the cache (an async Fetch is kicked off so a later
// query finds it warm).
func (c *Catalog) JoinStats(p *core.Plan) (opt.JoinStats, bool) {
	if len(p.Tables) != 2 {
		return opt.JoinStats{}, false
	}
	left, okL := c.Cached(p.Tables[0].NS)
	right, okR := c.Cached(p.Tables[1].NS)
	if !okL || !okR {
		if !okL {
			c.Fetch(p.Tables[0].NS, nil)
		}
		if !okR {
			c.Fetch(p.Tables[1].NS, nil)
		}
		return opt.JoinStats{}, false
	}
	left.Selectivity = c.sampleSelectivity(p.Tables[0])
	right.Selectivity = c.sampleSelectivity(p.Tables[1])
	left.HashedOnJoinAttr = hashedOnJoin(p.Tables[0])
	right.HashedOnJoinAttr = hashedOnJoin(p.Tables[1])
	j := opt.JoinStats{Left: left, Right: right}
	if m, ok := c.match[pairKey(p)]; ok {
		j.MatchFraction = m
	}
	return j, true
}

// ChooseStrategy picks the cheapest feasible join strategy for the plan
// under the configured objective, or ok=false when the catalog cannot
// answer yet (cold cache) — the caller then keeps the plan's default.
// Strategies whose plan-level preconditions fail (semi-join without
// RIDCols) are skipped even if the cost model ranks them first.
func (c *Catalog) ChooseStrategy(p *core.Plan) (core.Strategy, []opt.Estimate, bool) {
	j, ok := c.JoinStats(p)
	if !ok {
		return 0, nil, false
	}
	net := c.NetStats()
	if p.BloomBits > 0 {
		net.BloomBits = float64(p.BloomBits)
	}
	_, ests := opt.Choose(j, net, objective)
	for _, e := range ests {
		if !e.Feasible {
			continue
		}
		if e.Strategy == core.SymmetricSemiJoin &&
			(p.Tables[0].RIDCol < 0 || p.Tables[1].RIDCol < 0) {
			continue
		}
		return e.Strategy, ests, true
	}
	return 0, ests, false
}

// ChooseAccess decides whether a single-table plan carrying an
// index-scan candidate should actually use the index, by pricing both
// access paths (opt.ChooseScan) with the cached table cardinality and
// a local selectivity sample of the plan's filter. leafCapacity is the
// index's split threshold. ok is false while the catalog cannot answer
// (no index candidate, or the table missing from the cache — an async
// Fetch is kicked off so the next query finds it warm); the caller then
// keeps the plan as is.
func (c *Catalog) ChooseAccess(p *core.Plan, leafCapacity int) (useIndex bool, ok bool) {
	if len(p.Tables) != 1 || p.Tables[0].IndexScan == nil {
		return false, false
	}
	ts, cached := c.Cached(p.Tables[0].NS)
	if !cached {
		c.Fetch(p.Tables[0].NS, nil)
		return false, false
	}
	sel, sampled := c.sampleSelectivityOK(p.Tables[0])
	if !sampled {
		// No local fragment of the table to calibrate against: the
		// worst-case placeholder would always strip the index, so
		// decline (the caller keeps the plan as written) rather than
		// pessimize on no evidence.
		return false, false
	}
	ts.Selectivity = sel
	useIndex, _, _ = opt.ChooseScan(ts, c.NetStats(), leafCapacity)
	return useIndex, true
}

// --- feedback ----------------------------------------------------------

// Observe receives the engine's observed result count of a one-shot
// query initiated on this node (core.Observer) and folds the
// observed/predicted ratio into the table pair's match-fraction
// correction. Post-join predicate losses fold in too — the correction
// is a calibration knob for the whole residual, not a clean match-rate
// measurement, which is exactly what repeated choices need.
func (c *Catalog) Observe(p *core.Plan, count int) {
	if p == nil || len(p.Tables) != 2 || count < 0 {
		return
	}
	j, ok := c.JoinStats(p)
	if !ok {
		return
	}
	jn := j
	jn.MatchFraction = 1
	predicted := jn.Left.Tuples * jn.Left.Selectivity * jn.Right.Selectivity
	if predicted <= 0 {
		return
	}
	ratio := float64(count) / predicted
	prev, ok := c.match[pairKey(p)]
	if !ok {
		prev = 1
	}
	proposed := clamp(ratio, 0.01, 1)
	if c.match == nil {
		c.match = make(map[string]float64)
	}
	c.match[pairKey(p)] = clamp(0.5*prev+0.5*proposed, 0.01, 1)
}

// MatchCorrection reports the learned match-fraction correction for a
// table pair (1 and false before any feedback).
func (c *Catalog) MatchCorrection(left, right string) (float64, bool) {
	m, ok := c.match[left+"\x00"+right]
	if !ok {
		return 1, false
	}
	return m, true
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
