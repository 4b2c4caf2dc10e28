// Package pier is the public API of this reproduction of "Querying the
// Internet with PIER" (Huebsch, Hellerstein, Lanham, Loo, Shenker,
// Stoica — VLDB 2003): a massively distributed relational query engine
// layered on a DHT.
//
// A PIER deployment is a set of Nodes. Each node stacks, bottom-up
// (Figure 1 of the paper):
//
//   - a routing layer (CAN by default, Chord as the validation
//     alternative),
//   - a storage manager holding soft state,
//   - a provider exposing get/put/renew/multicast/lscan/newData,
//   - the relational query processor executing boxes-and-arrows plans.
//
// Nodes run either inside the discrete-event simulator (NewSimNetwork)
// or over real TCP sockets (StartNode) — from the same code base, as in
// the paper (§5.2).
package pier

import (
	"time"

	"pier/internal/core"
	"pier/internal/dht"
	"pier/internal/dht/can"
	"pier/internal/dht/chord"
	"pier/internal/dht/provider"
	"pier/internal/env"
	"pier/internal/index"
	"pier/internal/stats"
	"pier/internal/trace"
)

// Re-exported query-construction types. Plans are built either directly
// or with ParseSQL.
type (
	// Tuple is a relational row.
	Tuple = core.Tuple
	// Value is a column value (int64, float64, string, bool, nil).
	Value = core.Value
	// Plan is a serializable query plan.
	Plan = core.Plan
	// TableRef names one input relation of a plan.
	TableRef = core.TableRef
	// Aggregate is one aggregate function application.
	Aggregate = core.Aggregate
	// Expr is a scalar expression.
	Expr = core.Expr
	// ResultFunc receives result tuples at the initiator.
	ResultFunc = core.ResultFunc
	// Strategy selects the distributed join algorithm.
	Strategy = core.Strategy
	// QueryStats is the engine's result-channel counter snapshot
	// (result frames/tuples shipped, credit grants and stalls, Bloom
	// combine fallbacks). See Node.QueryStats.
	QueryStats = core.QueryStats
	// QueryTrace is an assembled distributed query trace: the span
	// events recorded by every participating node, causally ordered.
	// See Node.Trace.
	QueryTrace = trace.Trace
	// TraceSpan is one recorded span event inside a QueryTrace.
	TraceSpan = trace.Span
	// TraceStage identifies the instrumented pipeline stage a TraceSpan
	// covers (multicast arrival, executor start, result flush, ...).
	TraceStage = trace.Stage
)

// Join strategies (§4).
const (
	SymmetricHash     = core.SymmetricHash
	FetchMatches      = core.FetchMatches
	SymmetricSemiJoin = core.SymmetricSemiJoin
	BloomJoin         = core.BloomJoin
)

// Aggregate kinds.
const (
	Count = core.Count
	Sum   = core.Sum
	Avg   = core.Avg
	Min   = core.Min
	Max   = core.Max
)

// RegisterFunc installs a scalar function usable in plans (e.g. the
// workload's f(R.num3, S.num3)). Register the same functions on every
// node of a deployment.
func RegisterFunc(name string, fn func(args []Value) Value) { core.RegisterFunc(name, fn) }

// DHTKind selects the overlay implementation.
type DHTKind int

// Available DHTs.
const (
	// CAN is the paper's primary DHT (§3.1.1).
	CAN DHTKind = iota
	// Chord is the validation alternative (§3.2).
	Chord
)

// Options configures the per-node stack. It holds only the values some
// caller sets; every other protocol parameter (hop caps, retry and
// handoff delays, sketch and sample sizes, soft-state lifetimes derived
// from a refresh interval) is a constant of its package. A zero field
// means the package default.
type Options struct {
	// DHT picks the routing layer; default CAN.
	DHT DHTKind
	// CANConfig configures CAN routers.
	CANConfig can.Config
	// ChordConfig configures Chord routers: whether they run
	// stabilization.
	ChordConfig chord.Config
	// ProviderConfig configures the provider layer.
	ProviderConfig provider.Config
	// EngineConfig configures the query processor.
	EngineConfig core.Config
	// Stats configures the self-maintaining statistics catalog. The
	// zero value leaves the maintenance loop off (the catalog then only
	// answers explicit refreshes); set Stats.Interval to enable
	// periodic sampling, publication, and the deployment probe.
	Stats stats.Config
	// Index configures the Prefix Hash Tree range-index agent. The zero
	// value leaves the trie maintenance loop off (indexes still answer
	// lookups and accept entries; set Index.Interval to enable the
	// periodic split/merge/heal pass that keeps them balanced).
	Index index.Config
	// SpillDir, when non-empty, attaches a spill log in this directory
	// to the node's store: what the quota evicts is appended to a
	// compacting log instead of being discarded, stays visible to every
	// read, and survives a restart. Real nodes only (StartNode);
	// simulated networks ignore it — the simulator's byte-charging
	// model counts memory. Pair it with ProviderConfig.Quota: without a
	// quota nothing is ever evicted, so nothing spills.
	SpillDir string
}

// DefaultOptions returns the paper's simulation defaults.
func DefaultOptions() Options {
	return Options{
		CANConfig:      can.DefaultConfig(),
		ProviderConfig: provider.DefaultConfig(),
		EngineConfig:   core.DefaultConfig(),
	}
}

// Node is one PIER participant: environment, router, provider, and
// query processor, with messages dispatched layer by layer.
type Node struct {
	env      env.Env
	router   dht.Router
	provider *provider.Provider
	engine   *core.Engine
	stats    *stats.Catalog
	indexes  *index.Manager
	started  time.Time
}

// buildNode assembles the stack over an environment and registers the
// message dispatch chain.
func buildNode(e interface {
	env.Env
	SetHandler(env.Handler)
}, opts Options) *Node {
	var rt dht.Router
	switch opts.DHT {
	case Chord:
		rt = chord.New(e, opts.ChordConfig)
	default:
		rt = can.New(e, opts.CANConfig)
	}
	prov := provider.New(e, rt, opts.ProviderConfig)
	eng := core.New(e, prov, opts.EngineConfig)
	cat := stats.New(e, prov, opts.Stats)
	eng.SetObserver(cat.Observe)
	cat.Start()
	idx := index.New(e, prov, opts.Index)
	eng.SetIndexRanger(idx)
	idx.Start()
	n := &Node{env: e, router: rt, provider: prov, engine: eng, stats: cat, indexes: idx, started: e.Now()}
	e.SetHandler(env.HandlerFunc(n.handle))
	return n
}

// handle is the message dispatch chain: router, then provider, then
// engine.
func (n *Node) handle(from env.Addr, m env.Message) {
	if n.router.HandleMessage(from, m) {
		return
	}
	if n.provider.HandleMessage(from, m) {
		return
	}
	n.engine.HandleMessage(from, m)
}

// Addr returns the node's address.
func (n *Node) Addr() env.Addr { return n.env.Addr() }

// Router exposes the routing layer (lookup/join/leave, Table 1).
func (n *Node) Router() dht.Router { return n.router }

// Provider exposes the provider layer (get/put/renew/multicast/lscan/
// newData, Table 3).
func (n *Node) Provider() *provider.Provider { return n.provider }

// Engine exposes the query processor.
func (n *Node) Engine() *core.Engine { return n.engine }

// Stats exposes the node's statistics catalog: cached table statistics,
// deployment estimates, learned corrections, and explicit refresh
// control. Enabled (periodic) maintenance is configured through
// Options.Stats.
func (n *Node) Stats() *stats.Catalog { return n.stats }

// RefreshStats runs one catalog maintenance tick immediately: sample
// local tables, publish summaries, combine owned rollup buckets, and
// re-probe the deployment. Useful to warm a catalog without waiting for
// the periodic loop.
func (n *Node) RefreshStats() { n.stats.Refresh() }

// StorageStats is a node's soft-state pressure counter family: quota
// evictions, disk spill, and put-path throttling. All-zero on nodes
// without a storage quota. See Node.StorageStats.
type StorageStats = provider.StorageStats

// StorageStats reports this node's storage pressure counters: items
// and bytes evicted to hold namespace quotas, how many of those went to
// the spill log instead of being discarded, and puts throttled,
// delayed, or dropped by the put-path admission control. Counters are
// monotone (SpilledLive, the number of items on disk now, is the one
// gauge); diff two snapshots to attribute pressure to a workload.
func (n *Node) StorageStats() StorageStats { return n.provider.StorageStats() }

// QueryStats reports the node engine's result-channel counters:
// result frames and tuples shipped toward initiators, credit grants
// issued by collectors here, executor credit stalls, and Bloom-join
// combines degraded by mismatched peer filters. Counters are monotone;
// diff two snapshots to attribute activity to a workload.
func (n *Node) QueryStats() QueryStats { return n.engine.QueryStats() }

// TransportStats reports the node's transport link counters (frames,
// batches, bytes, drops). ok is false on environments without real
// links (the simulator charges WireSize instead of sending bytes).
func (n *Node) TransportStats() (s env.LinkStats, ok bool) {
	if lp, isReal := n.env.(env.LinkStatsProvider); isReal {
		return lp.LinkStats(), true
	}
	return env.LinkStats{}, false
}

// Publish stores a tuple in the DHT under (table, resourceID) with the
// given lifetime; wrappers publish and periodically renew this way
// (§2.2c, §3.2.3). instanceID separates same-key items. Tables covered
// by a Prefix Hash Tree index additionally get an index entry per
// publish, with the same lifetime.
func (n *Node) Publish(table, resourceID string, instanceID int64, t *Tuple, lifetime time.Duration) {
	n.provider.Put(table, resourceID, instanceID, t, lifetime)
	n.indexes.OnPublish(table, resourceID, instanceID, t, lifetime)
}

// Renew refreshes a previously published tuple's lifetime (and, for
// indexed tables, its index entries').
func (n *Node) Renew(table, resourceID string, instanceID int64, t *Tuple, lifetime time.Duration) {
	n.provider.Renew(table, resourceID, instanceID, t, lifetime)
	n.indexes.OnPublish(table, resourceID, instanceID, t, lifetime)
}

// Query validates and disseminates a plan from this node and streams
// result tuples into fn. It returns the query id for Cancel.
//
// Join plans marked AutoStrategy (SQL without a USING STRATEGY clause,
// or set explicitly) consult this node's statistics catalog first: with
// a warmed catalog the cost-based choice replaces the default strategy;
// a cold catalog leaves the default and triggers an async fetch so the
// next query finds it warm.
//
// In simulated networks, call Query between simulation Run calls (all
// node code runs on the simulation goroutine).
func (n *Node) Query(p *Plan, fn ResultFunc) (uint64, error) {
	if p.AutoStrategy && len(p.Tables) == 2 {
		if s, _, ok := n.stats.ChooseStrategy(p); ok {
			p.Strategy = s
		}
	}
	if p.AutoAccess && len(p.Tables) == 1 && p.Tables[0].IndexScan != nil {
		// The SQL planner attached an index candidate; drop it when the
		// catalog prices the range too broad for the index to beat a
		// full scan. A cold catalog keeps the index.
		if useIndex, ok := n.stats.ChooseAccess(p, n.indexes.Config().SplitThreshold); ok && !useIndex {
			p.Tables[0].IndexScan = nil
		}
	}
	return n.engine.Run(p, fn)
}

// Cancel stops result delivery for a query started on this node,
// reporting whether a live query with that id existed here (the admin
// plane's DELETE /api/queries/{id} turns false into a 404).
func (n *Node) Cancel(id uint64) bool { return n.engine.Cancel(id) }

// Trace returns the distributed trace of a traced query initiated on
// this node: partial (Finished == 0) while the query is live, complete
// and retained for the last few queries after Cancel closes it. ok is
// false for unknown, untraced, or evicted ids. A query is traced when
// its plan sets Trace, as EXPLAIN TRACE and the admin plane do.
func (n *Node) Trace(id uint64) (*QueryTrace, bool) { return n.engine.Trace(id) }

// Leave departs the overlay gracefully: the node's zone and its stored
// soft state transfer to a peer, so a clean shutdown (unlike a crash,
// §5.6) loses nothing.
func (n *Node) Leave() { n.provider.Leave() }
