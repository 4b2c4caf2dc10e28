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
	"time"

	"pier/internal/dht"
	"pier/internal/dht/multicast"
	"pier/internal/dht/storage"
	"pier/internal/env"
)

// Config controls one provider instance. New resolves a zero duration
// to its DefaultConfig value.
type Config struct {
	// GetTimeout bounds how long a get waits for the owner's reply
	// before delivering an empty result (soft-state best effort).
	GetTimeout time.Duration

	// ActiveExpiry enables event-driven deletion of items at their
	// lifetime. When off, expired items are filtered lazily on access —
	// useful for static experiments that must quiesce.
	ActiveExpiry bool

	// RobustMulticast disables directed-flood pruning in favor of full
	// neighbor flooding. Directed flooding delivers ~one copy per node
	// but loses the subtree behind a not-yet-detected failed node;
	// churn-heavy deployments (Figure 6) trade bandwidth for coverage.
	RobustMulticast bool

	// PutRetries is how many times a put is retried when its lookup
	// cannot resolve an owner (e.g. the route crossed a failed,
	// not-yet-recovered zone). Soft state tolerates the remaining
	// losses; retries just shorten the outage window.
	PutRetries int

	// PutRetryDelay spaces the retries. Default 2s.
	PutRetryDelay time.Duration

	// Quota bounds the local store with per-namespace byte quotas and
	// eviction. The zero value leaves it unbounded.
	Quota storage.QuotaConfig

	// Store is a storage manager opened before the node exists: one
	// with a spill log, whose opening can fail and so happens before
	// New. When set it is used as it is and Quota is ignored.
	Store *storage.Manager

	// ThrottleDelay is the base backoff a throttled publisher waits
	// before resending; attempt k waits (k+1)×ThrottleDelay. The
	// backoff is deterministic (no jitter) so seeded simulations
	// replay bit-for-bit. Default 2s.
	ThrottleDelay time.Duration
}

// DefaultConfig returns the provider defaults.
func DefaultConfig() Config {
	return Config{
		GetTimeout:    30 * time.Second,
		PutRetryDelay: 2 * time.Second,
		ThrottleDelay: 2 * time.Second,
	}
}

const (
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
	cfg   Config

	nonce       uint64
	pendingGets map[uint64]*pendingGet

	newData   map[string]map[int]func(*storage.Item)
	nextSubID int

	onMcast map[int]func(origin env.Addr, ns string, payload env.Message)

	expiryTimer   env.Timer
	expiryAt      time.Time
	handoffQueued bool

	putsThrottled  int64
	putsDelayed    int64
	throttledUntil map[string]time.Time
}

type pendingGet struct {
	cb    func([]*storage.Item)
	timer env.Timer
}

// New wires a provider over the node's router. The caller routes
// incoming messages through HandleMessage.
func New(e env.Env, rt dht.Router, cfg Config) *Provider {
	def := DefaultConfig()
	env.OrDefault(&cfg.GetTimeout, def.GetTimeout)
	env.OrDefault(&cfg.PutRetryDelay, def.PutRetryDelay)
	env.OrDefault(&cfg.ThrottleDelay, def.ThrottleDelay)
	st := cfg.Store
	if st == nil {
		st, _ = storage.Open(e.Now, cfg.Quota, "") // no spill log: nothing that can fail
	}
	// The subscription and bookkeeping maps are allocated lazily at
	// first insert; they are usually empty on an idle node and nil maps
	// read as empty.
	p := &Provider{
		env:   e,
		rt:    rt,
		store: st,
		flood: multicast.New(e, rt),
		cfg:   cfg,
	}
	p.flood.SetRobust(cfg.RobustMulticast)
	p.flood.OnDeliver(p.deliverMulticast)
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
	p.putItem(it, p.cfg.PutRetries, 0)
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
	p.rt.Lookup(k, func(owner env.Addr) {
		if owner == env.NilAddr {
			// The route crossed an unrecovered failure. Retry a few
			// times; past that, the producer's next renew restores the
			// item (soft state, §3.2.3).
			if retries > 0 {
				p.env.After(p.cfg.PutRetryDelay, func() { p.putItem(it, retries-1, attempt) })
			}
			return
		}
		p.env.Send(owner, &putMsg{Item: it, Attempt: attempt})
	})
}

// throttleBackoff spaces throttle retries: deterministic linear
// backoff, no jitter, so seeded simulations replay exactly.
func (p *Provider) throttleBackoff(attempt uint8) time.Duration {
	return time.Duration(attempt+1) * p.cfg.ThrottleDelay
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
// otherwise cb receives the owner's reply, or nil after GetTimeout.
func (p *Provider) Get(ns, rid string, cb func(items []*storage.Item)) {
	k := dht.KeyOf(ns, rid)
	if p.rt.Owns(k) {
		cb(p.store.Retrieve(ns, rid))
		return
	}
	p.rt.Lookup(k, func(owner env.Addr) {
		if owner == env.NilAddr {
			cb(nil)
			return
		}
		p.nonce++
		n := p.nonce
		pg := &pendingGet{cb: cb}
		pg.timer = p.env.After(p.cfg.GetTimeout, func() {
			if _, ok := p.pendingGets[n]; ok {
				delete(p.pendingGets, n)
				cb(nil)
			}
		})
		p.putPendingGet(n, pg)
		p.env.Send(owner, &getMsg{NS: ns, RID: rid, Nonce: n, Origin: p.env.Addr()})
	})
}

// putPendingGet registers an outstanding get, allocating the map on
// first use.
func (p *Provider) putPendingGet(n uint64, pg *pendingGet) {
	if p.pendingGets == nil {
		p.pendingGets = make(map[uint64]*pendingGet)
	}
	p.pendingGets[n] = pg
}

// Multicast delivers payload to every node in the overlay, tagged with a
// namespace; PIER uses it to ship query plans to the nodes serving a
// relation (§3.2.3).
func (p *Provider) Multicast(ns string, payload env.Message) {
	p.flood.Multicast(&nsPayload{NS: ns, Payload: payload})
}

// OnMulticast registers a handler for incoming multicasts (including
// this node's own). It returns an unsubscribe function.
func (p *Provider) OnMulticast(fn func(origin env.Addr, ns string, payload env.Message)) (unsubscribe func()) {
	id := p.nextSubID
	p.nextSubID++
	if p.onMcast == nil {
		p.onMcast = make(map[int]func(env.Addr, string, env.Message))
	}
	p.onMcast[id] = fn
	return func() { delete(p.onMcast, id) }
}

func (p *Provider) deliverMulticast(origin env.Addr, payload env.Message) {
	np, ok := payload.(*nsPayload)
	if !ok {
		return
	}
	for _, id := range env.SortedKeys(p.onMcast) {
		if fn, ok := p.onMcast[id]; ok {
			fn(origin, np.NS, np.Payload)
		}
	}
}

// Scan iterates the live items of a namespace stored locally — the
// provider's lscan. Run on every node in parallel it scans a relation.
func (p *Provider) Scan(ns string, f func(*storage.Item) bool) {
	p.store.Scan(ns, f)
}

// OnNewData registers a callback invoked whenever a new item arrives in
// the namespace on this node (§3.2.3). It returns an unsubscribe
// function.
func (p *Provider) OnNewData(ns string, fn func(*storage.Item)) (unsubscribe func()) {
	id := p.nextSubID
	p.nextSubID++
	subs, ok := p.newData[ns]
	if !ok {
		if p.newData == nil {
			p.newData = make(map[string]map[int]func(*storage.Item))
		}
		subs = make(map[int]func(*storage.Item))
		p.newData[ns] = subs
	}
	subs[id] = fn
	return func() {
		delete(subs, id)
		if len(subs) == 0 {
			delete(p.newData, ns)
		}
	}
}

// StoreLocal inserts an item into the local store directly, firing
// newData callbacks. The simulation harness also uses it to bulk-load
// tables (the paper measures only after tables are loaded, §5.2).
func (p *Provider) StoreLocal(it *storage.Item) {
	p.store.Store(it)
	p.scheduleExpiry()
	subs := p.newData[it.Namespace]
	for _, id := range env.SortedKeys(subs) {
		if fn, ok := subs[id]; ok {
			fn(it)
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
		if pg, ok := p.pendingGets[msg.Nonce]; ok {
			delete(p.pendingGets, msg.Nonce)
			pg.timer.Stop()
			pg.cb(msg.Items)
		}
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
	p.env.After(ra, func() { p.putItem(m.Item, p.cfg.PutRetries, m.Attempt) })
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

// scheduleExpiry keeps one timer armed for the earliest pending expiry.
func (p *Provider) scheduleExpiry() {
	if !p.cfg.ActiveExpiry {
		return
	}
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
