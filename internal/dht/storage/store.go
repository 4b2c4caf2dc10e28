package storage

// The Store interface extracts the storage manager's contract so the
// provider can run against pluggable backends: the unbounded in-memory
// Manager, the quota-enforcing Bounded wrapper, and the disk-backed
// Spill tier. Conformance is checked by one shared property suite
// (conformance_test.go) run against every implementation.

import "time"

// Store is the per-node soft-state store (§3.2.2–§3.2.3): items carry
// lifetimes, a re-Store of the same (namespace, resourceID, instanceID)
// is a renew, and unrenewed items expire.
//
// Locking contract: implementations are NOT internally synchronized.
// A Store is confined to its node's event loop — every call site
// (provider puts/gets/handoff, index maintenance, stats refresh) runs
// as an event on that loop. The engine's sharded result dispatch
// (internal/core/dispatch.go) processes only result and credit frames
// on its shards and never touches storage, so event-loop confinement
// holds even with DispatchShards > 1. Cross-thread access must go
// through the node's event queue (e.g. Session.Do on real nodes).
type Store interface {
	// Store inserts the item, replacing any existing item with the
	// same identity (replace-is-renew, §3.2.3). Bounded backends may
	// evict other items — or drop this one — to stay within budget.
	Store(it *Item)
	// Retrieve returns the live items under (namespace, resourceID),
	// sorted by instanceID.
	Retrieve(namespace, resourceID string) []*Item
	// Remove deletes the exact identity, reporting whether it existed.
	Remove(namespace, resourceID string, instanceID int64) bool
	// Scan iterates a namespace's live items in sorted (resourceID,
	// instanceID) order — the provider's lscan. Stops early when f
	// returns false.
	//
	// f may call Store, Remove, Retrieve and Scan (of this or another
	// namespace) on the same store: a rehash puts from inside a scan,
	// and a put into a bounded store evicts. Every item that was live
	// when the scan started and is still stored when its turn comes is
	// visited exactly once, in order (a replaced item as its
	// replacement); an item removed before its turn is not visited; an
	// item stored during the scan under a resourceID the namespace did
	// not hold is not visited, and one stored as a new instance of an
	// existing resourceID may or may not be. The one exception is the
	// Spill store: an item that a callback's own put evicts to disk
	// before its turn is skipped by a scan that started with nothing
	// of that namespace on disk.
	Scan(namespace string, f func(*Item) bool)
	// ScanAll iterates every live item across namespaces in sorted
	// order.
	ScanAll(f func(*Item) bool)
	// Namespaces lists the namespaces with at least one item, sorted.
	Namespaces() []string
	// Len returns the number of items (live or not yet swept) in a
	// namespace.
	Len(namespace string) int
	// TotalLen returns the number of items across all namespaces.
	TotalLen() int
	// NextExpiry reports the earliest pending expiry time, if any.
	NextExpiry() (time.Time, bool)
	// SweepExpired removes every item whose lifetime has passed and
	// returns them.
	SweepExpired() []*Item
	// Usage reports current in-memory byte occupancy, charged at
	// Item.WireSize (the simulator's byte model), per namespace and in
	// total. Spilled-to-disk items are not counted.
	Usage() Usage
	// Stats reports cumulative eviction/spill/drop counters since the
	// store was created.
	Stats() Stats
}

// Usage is a point-in-time byte occupancy report. ByNamespace is a
// fresh copy per call; callers may keep or mutate it.
type Usage struct {
	// Bytes is total in-memory occupancy across namespaces.
	Bytes int64
	// ByNamespace maps namespace -> in-memory bytes.
	ByNamespace map[string]int64
}

// Stats counts what a bounded store has forgotten or displaced. The
// plain Manager never evicts, so it reports zeros.
type Stats struct {
	// ItemsEvicted counts items evicted to enforce a quota (not
	// counting normal lifetime expiry).
	ItemsEvicted int64
	// BytesEvicted is the WireSize sum of evicted items.
	BytesEvicted int64
	// ItemsSpilled counts evictions that were written to the disk
	// tier instead of discarded.
	ItemsSpilled int64
	// BytesSpilled is the WireSize sum of spilled items.
	BytesSpilled int64
	// PutsDropped counts stores rejected outright because the incoming
	// item itself was the eviction victim.
	PutsDropped int64
	// SpilledLive is the current number of live items resident on disk
	// (a gauge, unlike the cumulative counters above).
	SpilledLive int
	// EvictedByNS maps namespace -> items evicted from it (fresh copy
	// per call).
	EvictedByNS map[string]int64
}

// PressureReporter is implemented by stores that can signal put-path
// backpressure. The provider checks it on each incoming put and answers
// with a throttle message when the namespace is over its high-water
// mark.
type PressureReporter interface {
	// OverHighWater reports whether storing into the namespace should
	// be throttled at the source.
	OverHighWater(namespace string) bool
}

var _ Store = (*Manager)(nil)
