package pier

import (
	"errors"
	"fmt"
	"runtime"
	"time"

	"pier/internal/dht/storage"
	"pier/internal/env"
	"pier/internal/realnet"
)

// RealNode is a PIER node bound to a real TCP transport — the same
// stack the simulator runs, deployed (§5.8).
//
// RealNode implements Session by marshalling every call onto the
// node's single-threaded event loop, so the whole surface is safe from
// any application goroutine. The embedded *Node's methods remain
// reachable but must only run on the event loop (via Do); prefer the
// Session methods.
type RealNode struct {
	*Node
	transport *realnet.Node
	landmark  env.Addr
}

// ErrJoinTimeout marks a join that did not complete within its
// deadline; WaitJoin wraps it with the node and landmark addresses.
var ErrJoinTimeout = errors.New("pier: join timed out")

// StartNode launches a PIER node listening on addr (e.g. "127.0.0.1:0")
// and joins the overlay through landmark; pass env.NilAddr ("") to
// start a new network.
//
// Real deployments churn: nodes join and leave while queries run, and
// directed-flood pruning assumes stabilized neighbor state. Real nodes
// therefore always use robust (full) flooding; the directed optimization
// is for stabilized simulation experiments. They also run for as long as
// the process does, so they always delete soft state at its lifetime
// instead of only filtering it on access; lazy expiry is for simulations
// that must quiesce.
func StartNode(addr string, landmark env.Addr, seed int64, opts Options) (*RealNode, error) {
	opts.ProviderConfig.RobustMulticast = true
	opts.ProviderConfig.ActiveExpiry = true
	if opts.EngineConfig.DispatchShards == 0 {
		// Real nodes spread result-channel processing across the
		// cores; the simulator keeps the single-shard inline mode its
		// determinism depends on.
		opts.EngineConfig.DispatchShards = runtime.GOMAXPROCS(0)
	}
	tr, err := realnet.Listen(addr, seed)
	if err != nil {
		return nil, err
	}
	if opts.SpillDir != "" && opts.ProviderConfig.Store == nil {
		st, err := storage.Open(tr.Now, opts.ProviderConfig.Quota, opts.SpillDir)
		if err != nil {
			tr.Close()
			return nil, err
		}
		opts.ProviderConfig.Store = st
	}
	n := buildNode(tr, opts)
	rn := &RealNode{Node: n, transport: tr, landmark: landmark}
	tr.Do(func() { n.router.Join(landmark) })
	return rn, nil
}

// Do runs f on the node's event loop and waits — required for any access
// to embedded *Node state from application goroutines. Never call Do
// (or any Session method of this node) from inside a callback already
// running on the event loop: the loop cannot wait on itself.
func (rn *RealNode) Do(f func()) { rn.transport.Do(f) }

// Landmark returns the address this node was asked to join through
// (env.NilAddr when it started a new network).
func (rn *RealNode) Landmark() env.Addr { return rn.landmark }

// WaitReady blocks until the node has joined the overlay or the timeout
// expires, reporting success.
func (rn *RealNode) WaitReady(timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		ready := false
		rn.Do(func() { ready = rn.router.Ready() })
		if ready {
			return true
		}
		time.Sleep(10 * time.Millisecond)
	}
	return false
}

// WaitJoin blocks until the node has joined the overlay, or returns an
// error wrapping ErrJoinTimeout that names this node and the landmark
// it was joining through.
func (rn *RealNode) WaitJoin(timeout time.Duration) error {
	if rn.WaitReady(timeout) {
		return nil
	}
	return fmt.Errorf("node %s: no overlay membership via landmark %q after %v: %w",
		rn.Addr(), rn.landmark, timeout, ErrJoinTimeout)
}

// Close shuts the transport down, then stops the engine's dispatch
// shards (transport first, so no new work arrives while they drain)
// and closes the store's spill log if it has one (after the transport,
// so no event-loop callback can touch the log mid-close).
func (rn *RealNode) Close() {
	rn.transport.Close()
	rn.engine.Close()
	_ = rn.provider.Store().Close() // soft state: nothing to do about a failed close
}

// Session implementation: each method shadows the embedded *Node's and
// runs it on the event loop.

// Publish stores a tuple in the DHT from the node's event loop. See
// Node.Publish.
func (rn *RealNode) Publish(table, resourceID string, instanceID int64, t *Tuple, lifetime time.Duration) {
	rn.Do(func() { rn.Node.Publish(table, resourceID, instanceID, t, lifetime) })
}

// Renew refreshes a published tuple's lifetime from the node's event
// loop. See Node.Renew.
func (rn *RealNode) Renew(table, resourceID string, instanceID int64, t *Tuple, lifetime time.Duration) {
	rn.Do(func() { rn.Node.Renew(table, resourceID, instanceID, t, lifetime) })
}

// Query starts a query from the node's event loop and returns its id.
// Results stream into fn on the event loop. See Node.Query.
func (rn *RealNode) Query(p *Plan, fn ResultFunc) (uint64, error) {
	var id uint64
	var err error
	rn.Do(func() { id, err = rn.Node.Query(p, fn) })
	return id, err
}

// QuerySQL plans src against the DHT catalog from the node's event
// loop; done and fn fire on the event loop. See Node.QuerySQL.
func (rn *RealNode) QuerySQL(src string, tables []string, fn ResultFunc, done func(id uint64, err error)) {
	rn.Do(func() { rn.Node.QuerySQL(src, tables, fn, done) })
}

// Exec runs a DDL statement (CREATE INDEX) from the node's event loop.
// See Node.Exec.
func (rn *RealNode) Exec(src string, cat Catalog) error {
	var err error
	rn.Do(func() { err = rn.Node.Exec(src, cat) })
	return err
}

// RegisterTable publishes a table schema into the DHT catalog from the
// node's event loop. See Node.RegisterTable.
func (rn *RealNode) RegisterTable(t SQLTable, lifetime time.Duration) {
	rn.Do(func() { rn.Node.RegisterTable(t, lifetime) })
}

// LookupTable resolves a table schema from the DHT catalog; cb fires
// on the event loop. See Node.LookupTable.
func (rn *RealNode) LookupTable(name string, cb func(*SQLTable)) {
	rn.Do(func() { rn.Node.LookupTable(name, cb) })
}

// Cancel stops a query started on this node from the event loop,
// reporting whether it was found. See Node.Cancel.
func (rn *RealNode) Cancel(id uint64) bool {
	found := false
	rn.Do(func() { found = rn.Node.Cancel(id) })
	return found
}

// Trace fetches the distributed trace of a traced query from the
// node's event loop. See Node.Trace.
func (rn *RealNode) Trace(id uint64) (*QueryTrace, bool) {
	var tr *QueryTrace
	ok := false
	rn.Do(func() { tr, ok = rn.Node.Trace(id) })
	return tr, ok
}

// Leave departs the overlay gracefully from the node's event loop. The
// zone-transfer messages are queued to a peer before this returns;
// give them a moment on the wire before Close. See Node.Leave.
func (rn *RealNode) Leave() { rn.Do(func() { rn.Node.Leave() }) }

// Snapshot captures the node's observable state from the event loop.
// See Node.Snapshot.
func (rn *RealNode) Snapshot() Snapshot {
	var s Snapshot
	rn.Do(func() { s = rn.Node.Snapshot() })
	return s
}

// LiveQueries lists live queries from the node's event loop. See
// Node.LiveQueries.
func (rn *RealNode) LiveQueries() []QueryInfo {
	var qs []QueryInfo
	rn.Do(func() { qs = rn.Node.LiveQueries() })
	return qs
}

// QueryStats snapshots the engine's result-channel counters from the
// event loop. See Node.QueryStats.
func (rn *RealNode) QueryStats() QueryStats {
	var qs QueryStats
	rn.Do(func() { qs = rn.Node.QueryStats() })
	return qs
}

// StorageStats snapshots the node's storage pressure counters from the
// event loop. See Node.StorageStats.
func (rn *RealNode) StorageStats() StorageStats {
	var ss StorageStats
	rn.Do(func() { ss = rn.Node.StorageStats() })
	return ss
}

// RefreshStats runs one catalog maintenance tick from the event loop.
// See Node.RefreshStats.
func (rn *RealNode) RefreshStats() { rn.Do(func() { rn.Node.RefreshStats() }) }
