// Package provider implements the paper's provider layer (§3.2.3,
// Table 3): it ties the routing layer and the storage manager together
// and exposes the interface applications (and PIER's query processor)
// program against:
//
//	get(namespace, resourceID) -> item
//	put(namespace, resourceID, instanceID, item, lifetime)
//	renew(namespace, resourceID, instanceID, item, lifetime) -> bool
//	multicast(namespace, resourceID, item)
//	lscan(namespace) -> iterator
//	newData(namespace) -> item
package provider

import (
	"slices"
	"time"

	"pier/internal/dht"
	"pier/internal/dht/multicast"
	"pier/internal/dht/storage"
	"pier/internal/env"
)

// Config controls one provider instance.
type Config struct {
	// Deprecated: ActiveExpiry is ignored, because every provider deletes
	// items at their lifetime. It stays until no caller sets it.
	ActiveExpiry bool

	// RobustMulticast disables directed-flood pruning in favor of full
	// neighbor flooding. Directed flooding delivers ~one copy per node
	// but loses the subtree behind a not-yet-detected failed node;
	// churn-heavy deployments (Figure 6) trade bandwidth for coverage.
	RobustMulticast bool

	// Quota bounds the local store with per-namespace byte quotas and
	// eviction. The zero value leaves it unbounded.
	Quota storage.QuotaConfig
}

const (
	// throttleDelay is the base backoff a throttled publisher waits
	// before resending; attempt k waits (k+1)×throttleDelay. The
	// backoff is deterministic (no jitter) so seeded simulations
	// replay bit-for-bit.
	throttleDelay = 2 * time.Second

	// getTimeout bounds how long a get waits for the owner's reply
	// before delivering an empty result (soft-state best effort).
	getTimeout = 10 * time.Second

	// putRetries is how many times a put is retried when its lookup
	// cannot resolve an owner (e.g. the route crossed a failed,
	// not-yet-recovered zone), and putRetryDelay spaces the retries.
	// Three retries 3 s apart, each behind a lookup of up to 8 s, span
	// more than the 15 s failure-detection window, so a put issued as
	// its owner crashes lands on the zone's adopter. Soft state
	// tolerates the remaining losses; retries just shorten the outage
	// window.
	putRetries    = 3
	putRetryDelay = 3 * time.Second

	// handoffDelay batches item handoffs after a location-map change.
	handoffDelay = 100 * time.Millisecond

	// maxBounces is how many times a put may bounce off an over-quota
	// owner before it is stored anyway (the final attempt always admits
	// — eviction, not refusal, enforces the budget, so renews keep soft
	// state alive under sustained pressure).
	maxBounces = 2
)

// Provider is the per-node provider layer.
type Provider struct {
	env   env.Env
	rt    dht.Router
	store *storage.Manager
	flood *multicast.Flooder

	gets dht.Calls[[]*storage.Item]

	newData map[string][]*newDataHandler // per namespace, in registration order
	onMcast []*mcastHandler              // in registration order

	expiryTimer   env.Timer
	expiryAt      time.Time
	handoffQueued bool

	putsThrottled  int64
	putsDelayed    int64
	throttledUntil map[string]time.Time

	// lookupTime totals how long the lookups of this node's puts and
	// gets took to resolve an owner; lookupsTimed counts them.
	lookupTime   time.Duration
	lookupsTimed int64
}

// New wires a provider over the node's router and store. A nil store
// means a memory store bounded by cfg.Quota; pass one to use a store
// opened before the node exists (one with a spill log, whose opening
// can fail), in which case cfg.Quota is ignored. The caller routes
// incoming messages through HandleMessage.
func New(e env.Env, rt dht.Router, cfg Config, st *storage.Manager) *Provider {
	if st == nil {
		st, _ = storage.Open(e.Now, cfg.Quota, "") // no spill log: nothing that can fail
	}
	// The subscription and bookkeeping maps are allocated lazily at
	// first insert; they are usually empty on an idle node and nil maps
	// read as empty.
	p := &Provider{env: e, rt: rt, store: st}
	p.flood = multicast.New(e, rt, cfg.RobustMulticast, p.deliverMulticast)
	rt.OnLocationMapChange(p.scheduleHandoff)
	return p
}

// Store returns the node's storage manager (read-mostly access for
// tests and stats).
func (p *Provider) Store() *storage.Manager { return p.store }

// StorageStats are the provider's soft-state pressure counters: the
// store's eviction/spill totals plus the put-path throttle counts. In
// JSON the embedded store counters flatten beside the two below.
type StorageStats struct {
	storage.Stats
	// PutsThrottled counts puts this node answered with a throttle
	// message instead of storing (owner side).
	PutsThrottled int64 `json:"puts_throttled"`
	// PutsDelayed counts puts this node deferred after receiving a
	// throttle, or self-throttled on a local store (publisher side).
	PutsDelayed int64 `json:"puts_delayed"`
}

// StorageStats reports the node's storage pressure counters.
func (p *Provider) StorageStats() StorageStats {
	return StorageStats{
		Stats:         p.store.Stats(),
		PutsThrottled: p.putsThrottled,
		PutsDelayed:   p.putsDelayed,
	}
}

// Router returns the underlying routing layer.
func (p *Provider) Router() dht.Router { return p.rt }

// LookupTime reports how many lookups of this node's puts and gets
// resolved an owner, and their total time from issue to answer. With
// the router's LookupStats it gives the overlay's per-hop latency.
func (p *Provider) LookupTime() (count int64, total time.Duration) {
	return p.lookupsTimed, p.lookupTime
}

// timeLookup folds one resolved lookup issued at start (Unix nanoseconds:
// a time.Time would move the Lookup callbacks' closures up a size class).
func (p *Provider) timeLookup(start int64) {
	p.lookupTime += time.Duration(p.env.Now().UnixNano() - start)
	p.lookupsTimed++
}

// Env returns the node environment.
func (p *Provider) Env() env.Env { return p.env }

// Put stores (namespace, resourceID, instanceID) -> item in the DHT for
// lifetime. Like most DHT operations it is a lookup followed by a direct
// communication (§5.5.1 footnote 6); if the key maps locally no message
// is sent.
func (p *Provider) Put(ns, rid string, iid int64, payload env.Message, lifetime time.Duration) {
	it := &storage.Item{
		Namespace:  ns,
		ResourceID: rid,
		InstanceID: iid,
		Payload:    payload,
	}
	if lifetime > 0 {
		it.Expires = p.env.Now().Add(lifetime)
	}
	p.putItem(it, putRetries, 0)
}

func (p *Provider) putItem(it *storage.Item, retries int, attempt uint8) {
	// A namespace recently throttled by its owner defers fresh puts
	// until the announced deadline, so one publisher doesn't hammer an
	// over-quota owner with every new tuple.
	if attempt == 0 {
		if until, ok := p.throttledUntil[it.Namespace]; ok {
			if wait := until.Sub(p.env.Now()); wait > 0 {
				p.putsDelayed++
				p.env.After(wait, func() { p.putItem(it, retries, 1) })
				return
			}
			delete(p.throttledUntil, it.Namespace)
		}
	}
	k := it.Key()
	if p.rt.Owns(k) {
		// Local stores self-throttle with the same bounded backoff a
		// remote owner would impose, then admit unconditionally.
		if attempt < maxBounces && p.store.OverHighWater(it.Namespace) {
			p.putsDelayed++
			p.env.After(p.throttleBackoff(attempt), func() { p.putItem(it, retries, attempt+1) })
			return
		}
		p.StoreLocal(it)
		return
	}
	start := p.env.Now().UnixNano()
	p.rt.Lookup(k, func(owner env.Addr) {
		if owner == env.NilAddr {
			// The route crossed an unrecovered failure. Retry a few
			// times; past that, the producer's next renew restores the
			// item (soft state, §3.2.3).
			if retries > 0 {
				p.env.After(putRetryDelay, func() { p.putItem(it, retries-1, attempt) })
			}
			return
		}
		p.timeLookup(start)
		p.env.Send(owner, &putMsg{Item: it, Attempt: attempt})
	})
}

// throttleBackoff spaces throttle retries: deterministic linear
// backoff, no jitter, so seeded simulations replay exactly.
func (p *Provider) throttleBackoff(attempt uint8) time.Duration {
	return time.Duration(attempt+1) * throttleDelay
}

// Renew re-puts the item with a fresh lifetime, keeping it live
// (§3.2.3). It returns true; failures surface only as eventual expiry,
// matching soft-state semantics.
func (p *Provider) Renew(ns, rid string, iid int64, payload env.Message, lifetime time.Duration) bool {
	p.Put(ns, rid, iid, payload, lifetime)
	return true
}

// Get fetches the items stored under (namespace, resourceID). If the key
// maps locally the callback runs synchronously (§3.2.1 footnote 3);
// otherwise cb receives the owner's reply, or nil after getTimeout.
func (p *Provider) Get(ns, rid string, cb func(items []*storage.Item)) {
	k := dht.KeyOf(ns, rid)
	if p.rt.Owns(k) {
		cb(p.store.Retrieve(ns, rid))
		return
	}
	start := p.env.Now().UnixNano()
	p.rt.Lookup(k, func(owner env.Addr) {
		if owner == env.NilAddr {
			cb(nil)
			return
		}
		p.timeLookup(start)
		n := p.gets.Start(p.env, getTimeout, cb)
		p.env.Send(owner, &getMsg{NS: ns, RID: rid, Nonce: n, Origin: p.env.Addr()})
	})
}

// Multicast delivers payload to every node in the overlay, tagged with a
// namespace; PIER uses it to ship query plans to the nodes serving a
// relation (§3.2.3).
func (p *Provider) Multicast(ns string, payload env.Message) {
	p.flood.Multicast(&nsPayload{NS: ns, Payload: payload})
}

// OnMulticast registers a handler for incoming multicasts (including
// this node's own). It returns an unsubscribe function. Handlers run in
// registration order; one unsubscribed during a delivery is skipped, and
// one registered during it waits for the next.
func (p *Provider) OnMulticast(fn func(origin env.Addr, ns string, payload env.Message)) (unsubscribe func()) {
	sub := &fn // unsubscribing clears it
	p.onMcast = append(slices.Clip(p.onMcast), sub)
	return func() {
		*sub = nil
		p.onMcast = slices.DeleteFunc(slices.Clone(p.onMcast), func(s *mcastHandler) bool { return s == sub })
	}
}

type mcastHandler = func(origin env.Addr, ns string, payload env.Message)

func (p *Provider) deliverMulticast(origin env.Addr, payload env.Message) {
	np, ok := payload.(*nsPayload)
	if !ok {
		return
	}
	// The handlers registered when the delivery began: a published
	// slice is replaced, never written.
	for _, fn := range p.onMcast {
		if *fn != nil {
			(*fn)(origin, np.NS, np.Payload)
		}
	}
}

// Scan iterates the live items of a namespace stored locally — the
// provider's lscan. Run on every node in parallel it scans a relation.
func (p *Provider) Scan(ns string, f func(*storage.Item) bool) {
	p.store.Scan(ns, f)
}

// Drop deletes every item of a namespace stored on this node, sending
// nothing and leaving the armed expiry timer to find what is left.
func (p *Provider) Drop(ns string) {
	p.store.Drop(ns)
}

// OnNewData registers a callback invoked whenever a new item arrives in
// the namespace on this node (§3.2.3). It returns an unsubscribe
// function. A namespace's callbacks run in registration order, and one
// unsubscribed by an earlier callback of the same delivery is skipped.
func (p *Provider) OnNewData(ns string, fn func(*storage.Item)) (unsubscribe func()) {
	sub := &fn // unsubscribing clears it
	if p.newData == nil {
		p.newData = make(map[string][]*newDataHandler)
	}
	p.newData[ns] = append(slices.Clip(p.newData[ns]), sub)
	return func() {
		*sub = nil
		subs := slices.DeleteFunc(slices.Clone(p.newData[ns]), func(s *newDataHandler) bool { return s == sub })
		if len(subs) > 0 {
			p.newData[ns] = subs
			return
		}
		delete(p.newData, ns)
		if len(p.newData) == 0 {
			p.newData = nil // a map keeps its peak size
		}
	}
}

type newDataHandler = func(*storage.Item)

// StoreLocal inserts an item into the local store directly, firing
// newData callbacks. The simulation harness also uses it to bulk-load
// tables (the paper measures only after tables are loaded, §5.2).
func (p *Provider) StoreLocal(it *storage.Item) {
	p.store.Store(it)
	p.scheduleExpiry()
	// The handlers registered when the store began: a published slice
	// is replaced, never written.
	for _, fn := range p.newData[it.Namespace] {
		if *fn != nil {
			(*fn)(it)
		}
	}
}

// Leave departs the overlay gracefully: stored items transfer to the
// peer inheriting this node's key space before the routing state is
// torn down, so a clean shutdown loses no soft state.
func (p *Provider) Leave() {
	var items []*storage.Item
	p.store.ScanAll(func(it *storage.Item) bool {
		items = append(items, it)
		return true
	})
	heir := p.rt.Leave()
	if heir == env.NilAddr || len(items) == 0 {
		return
	}
	// Batch to bound message count; the heir re-handoffs anything that
	// belongs elsewhere via its own location-map change.
	const batch = 64
	for start := 0; start < len(items); start += batch {
		end := start + batch
		if end > len(items) {
			end = len(items)
		}
		p.env.Send(heir, &transferMsg{Items: items[start:end]})
	}
}

// HandleMessage consumes provider and multicast messages, returning
// false for anything else.
func (p *Provider) HandleMessage(from env.Addr, m env.Message) bool {
	if p.flood.HandleMessage(from, m) {
		return true
	}
	switch msg := m.(type) {
	case *putMsg:
		p.onPut(from, msg)
	case *putThrottleMsg:
		p.onThrottle(msg)
	case *getMsg:
		p.onGet(msg)
	case *getReply:
		p.gets.Reply(msg.Nonce, msg.Items)
	case *transferMsg:
		for _, it := range msg.Items {
			p.StoreLocal(it)
		}
	default:
		return false
	}
	return true
}

// onPut admits an incoming put, or bounces it back with a throttle
// when the target namespace is past its high-water mark. A put that
// has already bounced maxBounces times is always admitted: the quota
// is enforced by eviction, not refusal, so renews keep soft state
// alive under sustained pressure.
func (p *Provider) onPut(from env.Addr, m *putMsg) {
	ns := m.Item.Namespace
	if m.Attempt < maxBounces && p.store.OverHighWater(ns) {
		p.putsThrottled++
		p.env.Send(from, &putThrottleMsg{
			Item:       m.Item,
			Attempt:    m.Attempt + 1,
			RetryAfter: p.throttleBackoff(m.Attempt),
		})
		return
	}
	p.StoreLocal(m.Item)
}

// onThrottle honors an owner's backpressure signal: remember the
// namespace's retry deadline (fresh puts defer to it) and reschedule
// the bounced item.
func (p *Provider) onThrottle(m *putThrottleMsg) {
	ra := m.RetryAfter
	if ra > maxRetryAfter {
		ra = maxRetryAfter // clamp hostile/buggy senders
	}
	until := p.env.Now().Add(ra)
	if cur, ok := p.throttledUntil[m.Item.Namespace]; !ok || until.After(cur) {
		if p.throttledUntil == nil {
			p.throttledUntil = make(map[string]time.Time)
		}
		p.throttledUntil[m.Item.Namespace] = until
	}
	p.putsDelayed++
	p.env.After(ra, func() { p.putItem(m.Item, putRetries, m.Attempt) })
}

func (p *Provider) onGet(m *getMsg) {
	k := dht.KeyOf(m.NS, m.RID)
	if !p.rt.Owns(k) && !m.Forwarded {
		// The key space was remapped between the caller's lookup and the
		// get: chase the current owner once, at the cost of an extra
		// round trip (§4.1).
		p.rt.Lookup(k, func(owner env.Addr) {
			if owner == env.NilAddr || owner == p.env.Addr() {
				p.env.Send(m.Origin, &getReply{Nonce: m.Nonce, Items: p.store.Retrieve(m.NS, m.RID)})
				return
			}
			fwd := *m
			fwd.Forwarded = true
			p.env.Send(owner, &fwd)
		})
		return
	}
	p.env.Send(m.Origin, &getReply{Nonce: m.Nonce, Items: p.store.Retrieve(m.NS, m.RID)})
}

// scheduleExpiry keeps one timer armed for the earliest pending expiry;
// an empty store arms nothing.
func (p *Provider) scheduleExpiry() {
	next, ok := p.store.NextExpiry()
	if !ok {
		return
	}
	if p.expiryTimer != nil && !p.expiryAt.IsZero() && !next.Before(p.expiryAt) {
		return
	}
	if p.expiryTimer != nil {
		p.expiryTimer.Stop()
	}
	p.expiryAt = next
	d := next.Sub(p.env.Now())
	p.expiryTimer = p.env.After(d, func() {
		p.expiryTimer = nil
		p.expiryAt = time.Time{}
		p.store.SweepExpired()
		p.scheduleExpiry()
	})
}

// scheduleHandoff transfers items this node no longer owns after the
// location map changed (zone split or takeover).
func (p *Provider) scheduleHandoff() {
	if p.handoffQueued {
		return
	}
	p.handoffQueued = true
	p.env.After(handoffDelay, func() {
		p.handoffQueued = false
		if !p.rt.Ready() {
			return
		}
		var moving []*storage.Item
		p.store.ScanAll(func(it *storage.Item) bool {
			if !p.rt.Owns(it.Key()) {
				moving = append(moving, it)
			}
			return true
		})
		for _, it := range moving {
			it := it
			p.store.Remove(it.Namespace, it.ResourceID, it.InstanceID)
			p.rt.Lookup(it.Key(), func(owner env.Addr) {
				if owner == env.NilAddr {
					return // lost; soft state will restore it on renew
				}
				if owner == p.env.Addr() {
					p.StoreLocal(it)
					return
				}
				p.env.Send(owner, &transferMsg{Items: []*storage.Item{it}})
			})
		}
	})
}
