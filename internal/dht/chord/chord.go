// Package chord implements the Chord DHT on a 64-bit identifier circle:
// successor lists, finger tables, and the periodic stabilization protocol.
// The paper ported PIER to Chord as a validation exercise requiring "a
// fairly minimal integration effort" (§3.2); this package plays the same
// role here by implementing the identical dht.Router interface as CAN.
package chord

import (
	"crypto/sha1"
	"encoding/binary"
	"sort"
	"time"

	"pier/internal/dht"
	"pier/internal/env"
)

// Config controls a Chord router. The zero value is a router without
// maintenance, the static experiments' setting.
type Config struct {
	// Maintenance enables stabilize / fix-fingers / check-predecessor.
	Maintenance bool
}

// Fixed protocol parameters, mirroring the CAN defaults where
// applicable.
const (
	// stabilizeInterval is the period of the maintenance tasks (and the
	// join-retry and stabilize-probe timeout).
	stabilizeInterval = 3 * time.Second
	// successorListLen is the length of the successor list kept for
	// fault tolerance.
	successorListLen = 8
	// lookupTimeout bounds Lookup latency before failure is reported.
	lookupTimeout = 30 * time.Second
	// maxHops caps routing to break loops during instability.
	maxHops = 512
)

// IDOf maps a node address onto the identifier circle.
func IDOf(a env.Addr) uint64 {
	h := sha1.Sum([]byte(a))
	return binary.BigEndian.Uint64(h[:8])
}

// between reports whether x lies in the half-open ring interval (a, b].
func between(a, x, b uint64) bool {
	if a < b {
		return x > a && x <= b
	}
	// Wrapped (or a == b, which denotes the full circle).
	return x > a || x <= b
}

type entry struct {
	addr env.Addr
	id   uint64
}

// Router is a Chord node's routing layer implementing dht.Router.
type Router struct {
	env env.Env
	cfg Config
	id  uint64

	joined   bool
	pred     entry
	hasPred  bool
	succs    []entry // successor list, succs[0] is the successor
	fingers  []entry // fingers[i] = successor(id + 2^i); zero addr = unset
	nextFing int

	locChange []func()
	calls     dht.Calls[env.Addr]
	stopMaint func()

	// stabNonce / succFails track the in-flight stabilization probe
	// and consecutive successor failures.
	stabNonce uint64
	succFails int

	// lookupCount and lookupHops accumulate routing statistics.
	lookupCount, lookupHops int64
}

// New creates a Chord router bound to the node environment.
func New(e env.Env, cfg Config) *Router {
	return &Router{
		env:     e,
		cfg:     cfg,
		id:      IDOf(e.Addr()),
		fingers: make([]entry, 64),
	}
}

// ID returns the node's ring identifier.
func (r *Router) ID() uint64 { return r.id }

// LookupStats reports initiated lookups and total hops, like
// can.Router.LookupStats.
func (r *Router) LookupStats() (count, hops int64) { return r.lookupCount, r.lookupHops }

// EstimateNodes estimates the ring size from successor-list density:
// the list's k entries span a ring arc of length gap, so with uniform
// ids n ≈ k × 2^64 / gap. In rings no larger than the successor list
// the list wraps back to this node, and the ring size is simply the
// number of distinct nodes seen. The statistics catalog feeds this to
// the optimizer's NetStats without any global census.
func (r *Router) EstimateNodes() int {
	if len(r.succs) == 0 {
		return 1
	}
	distinct := map[uint64]bool{r.id: true}
	for _, s := range r.succs {
		if s.id == r.id {
			// Wrapped past ourselves: the list covers the whole ring.
			return len(distinct)
		}
		distinct[s.id] = true
	}
	last := r.succs[len(r.succs)-1]
	gap := last.id - r.id // ring distance, wrap via uint64 arithmetic
	if gap == 0 {
		return len(distinct)
	}
	frac := float64(gap) / (1 << 63) / 2
	n := int(float64(len(r.succs))/frac + 0.5)
	if n < len(distinct) {
		n = len(distinct)
	}
	return n
}

// Ready implements dht.Router.
func (r *Router) Ready() bool { return r.joined }

// Owns implements dht.Router: a Chord node is responsible for keys in
// (predecessor, self].
func (r *Router) Owns(k dht.Key) bool {
	if !r.joined {
		return false
	}
	if !r.hasPred {
		// Single-node network or predecessor unknown: successor(self)
		// semantics make us responsible only if we are our own successor.
		return len(r.succs) == 0 || r.succs[0].id == r.id
	}
	return between(r.pred.id, k.Ring(), r.id)
}

// Share implements dht.Router: the arc (predecessor, self] that Owns
// answers for, measured between the two ids' top 63 bits. Each node's
// arc ends where its successor's begins, so the arcs of a consistent
// ring telescope to exactly dht.WholeSpace.
func (r *Router) Share() uint64 {
	switch {
	case !r.joined:
		return 0
	case !r.hasPred:
		if len(r.succs) == 0 || r.succs[0].id == r.id {
			return dht.WholeSpace // alone on the ring
		}
		return 0
	case r.pred.id == r.id:
		return dht.WholeSpace
	}
	return (r.id>>1 - r.pred.id>>1) & (dht.WholeSpace - 1)
}

// Neighbors implements dht.Router: successor list, fingers, predecessor.
func (r *Router) Neighbors() []env.Addr {
	seen := map[env.Addr]bool{r.env.Addr(): true}
	var out []env.Addr
	add := func(e entry) {
		if e.addr != env.NilAddr && !seen[e.addr] {
			seen[e.addr] = true
			out = append(out, e.addr)
		}
	}
	for _, s := range r.succs {
		add(s)
	}
	if r.hasPred {
		add(r.pred)
	}
	for _, f := range r.fingers {
		add(f)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// OnLocationMapChange implements dht.Router.
func (r *Router) OnLocationMapChange(f func()) { r.locChange = append(r.locChange, f) }

func (r *Router) fireLocChange() {
	for _, f := range r.locChange {
		f()
	}
}

// Join implements dht.Router.
func (r *Router) Join(landmark env.Addr) {
	if landmark == env.NilAddr {
		r.joined = true
		r.succs = []entry{{r.env.Addr(), r.id}}
		r.startMaintenance()
		r.fireLocChange()
		return
	}
	n := r.calls.Start(r.env, lookupTimeout, func(owner env.Addr) {
		if owner == env.NilAddr {
			// Retry the join lookup.
			r.env.After(stabilizeInterval, func() { r.Join(landmark) })
			return
		}
		r.joined = true
		r.succs = []entry{{owner, IDOf(owner)}}
		r.startMaintenance()
		r.stabilize()
	})
	r.env.Send(landmark, &findSuccMsg{ID: r.id, Origin: r.env.Addr(), Nonce: n})
}

// Leave implements dht.Router: tell the predecessor and successor to
// link up around us. The successor inherits our keys (it becomes
// successor(k) for every k we owned) and is returned for data handoff.
func (r *Router) Leave() env.Addr {
	if !r.joined {
		return env.NilAddr
	}
	heir := env.NilAddr
	if len(r.succs) > 0 && r.succs[0].addr != r.env.Addr() {
		heir = r.succs[0].addr
		pred := entry{}
		if r.hasPred {
			pred = r.pred
		}
		r.env.Send(r.succs[0].addr, &leaveMsg{PredAddr: pred.addr, PredID: pred.id})
		if r.hasPred {
			r.env.Send(r.pred.addr, &leaveMsg{SuccAddr: r.succs[0].addr, SuccID: r.succs[0].id})
		}
	}
	r.joined = false
	r.hasPred = false
	r.succs = nil
	if r.stopMaint != nil {
		r.stopMaint()
		r.stopMaint = nil
	}
	r.fireLocChange()
	return heir
}

// Lookup implements dht.Router.
func (r *Router) Lookup(k dht.Key, cb func(env.Addr)) {
	id := k.Ring()
	r.lookupCount++
	if r.Owns(k) {
		cb(r.env.Addr())
		return
	}
	n := r.calls.Start(r.env, lookupTimeout, cb)
	r.routeFindSucc(&findSuccMsg{ID: id, Origin: r.env.Addr(), Nonce: n})
}

// routeFindSucc forwards a find-successor request one hop, or answers it.
func (r *Router) routeFindSucc(m *findSuccMsg) {
	if len(r.succs) == 0 || r.succs[0].id == r.id {
		// We are the only node we know: we are the successor.
		r.env.Send(m.Origin, &findSuccReply{Nonce: m.Nonce, Owner: r.env.Addr(), Hops: m.Hops})
		return
	}
	if between(r.id, m.ID, r.succs[0].id) {
		r.env.Send(m.Origin, &findSuccReply{Nonce: m.Nonce, Owner: r.succs[0].addr, Hops: m.Hops + 1})
		return
	}
	m.Hops++
	if int(m.Hops) > maxHops {
		return
	}
	next := r.closestPreceding(m.ID)
	if next.addr == env.NilAddr || next.addr == r.env.Addr() {
		next = r.succs[0]
	}
	r.env.Send(next.addr, m)
}

func (r *Router) closestPreceding(id uint64) entry {
	for i := len(r.fingers) - 1; i >= 0; i-- {
		f := r.fingers[i]
		if f.addr != env.NilAddr && f.addr != r.env.Addr() && between(r.id, f.id, id-1) && f.id != id {
			return f
		}
	}
	for i := len(r.succs) - 1; i >= 0; i-- {
		s := r.succs[i]
		if s.addr != r.env.Addr() && between(r.id, s.id, id-1) {
			return s
		}
	}
	if len(r.succs) > 0 {
		return r.succs[0]
	}
	return entry{}
}

// HandleMessage implements dht.Router.
func (r *Router) HandleMessage(from env.Addr, m env.Message) bool {
	switch msg := m.(type) {
	case *findSuccMsg:
		r.routeFindSucc(msg)
	case *findSuccReply:
		if r.calls.Reply(msg.Nonce, msg.Owner) {
			r.lookupHops += int64(msg.Hops)
		}
	case *getPredMsg:
		reply := &getPredReply{Nonce: msg.Nonce, HasPred: r.hasPred}
		if r.hasPred {
			reply.PredAddr, reply.PredID = r.pred.addr, r.pred.id
		}
		for _, s := range r.succs {
			reply.SuccAddrs = append(reply.SuccAddrs, s.addr)
		}
		r.env.Send(msg.Origin, reply)
	case *getPredReply:
		r.onGetPredReply(from, msg)
	case *notifyMsg:
		cand := entry{from, msg.ID}
		if !r.hasPred || between(r.pred.id, cand.id, r.id-1) && cand.id != r.id {
			changed := !r.hasPred || r.pred.addr != cand.addr
			r.pred, r.hasPred = cand, true
			if changed {
				r.fireLocChange()
			}
		}
	case *pingMsg:
		r.env.Send(msg.Origin, &pongMsg{Nonce: msg.Nonce})
	case *pongMsg:
		r.calls.Reply(msg.Nonce, from)
	case *leaveMsg:
		r.onLeaveMsg(msg)
	default:
		return false
	}
	return true
}

func (r *Router) onLeaveMsg(m *leaveMsg) {
	if m.SuccAddr != env.NilAddr && len(r.succs) > 0 {
		r.succs[0] = entry{m.SuccAddr, m.SuccID}
	}
	if m.PredAddr != env.NilAddr {
		changed := !r.hasPred || r.pred.addr != m.PredAddr
		r.pred, r.hasPred = entry{m.PredAddr, m.PredID}, true
		if changed {
			r.fireLocChange()
		}
	} else if m.SuccAddr == env.NilAddr {
		// Our predecessor left without a replacement.
		r.hasPred = false
		r.fireLocChange()
	}
}

var _ dht.Router = (*Router)(nil)
