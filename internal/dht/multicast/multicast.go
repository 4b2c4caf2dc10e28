// Package multicast disseminates a message to every node of the overlay.
// PIER uses multicast to distribute query instructions to the nodes
// holding data in a namespace (§3.2.3) and to redistribute OR-ed Bloom
// filters (§4.2). The paper's content-based multicast tech report [18]
// is unavailable; this package implements flooding over the DHT's
// neighbor links with duplicate suppression and, when the router
// supports it (CAN does), directed flooding that delivers close to
// exactly one copy per node.
package multicast

import (
	"time"

	"pier/internal/dht"
	"pier/internal/env"
	"pier/internal/wire"
)

// FloodMsg carries one multicast payload hop-by-hop over neighbor links.
type FloodMsg struct {
	Origin  env.Addr
	Seq     uint64
	Hint    []uint32 // origin geometry for directed flooding (may be nil)
	Payload env.Message
}

// WireSize implements env.Message.
func (m *FloodMsg) WireSize() int { return wire.Size(m) }

// Flooder implements multicast for one node.
type Flooder struct {
	env    env.Env
	rt     dht.Router
	robust bool
	seq    uint64
	// seen and old suppress duplicates: floods are recorded in seen,
	// which every ten minutes becomes old while the previous old — floods
	// ten to twenty minutes stale — is dropped whole. Nothing is scanned.
	seen, old map[seenKey]struct{}
	rotated   time.Time
	// handlers is in registration order; unsubscribing clears the slot.
	handlers []func(origin env.Addr, payload env.Message)
}

type seenKey struct {
	origin env.Addr
	seq    uint64
}

// New creates a flooder over the node's router.
func New(e env.Env, rt dht.Router) *Flooder {
	return &Flooder{env: e, rt: rt, seen: make(map[seenKey]struct{}), rotated: e.Now()}
}

// SetRobust switches between directed flooding (false, the efficient
// default) and full neighbor flooding (true, redundant copies that
// survive undetected node failures).
func (f *Flooder) SetRobust(r bool) { f.robust = r }

// OnDeliver registers a delivery callback and returns an unsubscribe
// function. The callback also fires for this node's own multicasts — a
// multicast reaches all nodes including the sender.
func (f *Flooder) OnDeliver(fn func(origin env.Addr, payload env.Message)) (unsubscribe func()) {
	id := len(f.handlers)
	f.handlers = append(f.handlers, fn)
	return func() { f.handlers[id] = nil }
}

// Multicast delivers payload to every reachable node in the overlay.
func (f *Flooder) Multicast(payload env.Message) {
	f.seq++
	m := &FloodMsg{Origin: f.env.Addr(), Seq: f.seq, Payload: payload}
	if mr, ok := f.rt.(dht.MulticastRouter); ok {
		m.Hint = mr.MulticastHint()
	}
	f.remember(seenKey{m.Origin, m.Seq})
	f.deliver(m)
	f.forward(m, env.NilAddr)
}

// HandleMessage consumes FloodMsgs; it returns false for anything else.
func (f *Flooder) HandleMessage(from env.Addr, m env.Message) bool {
	fm, ok := m.(*FloodMsg)
	if !ok {
		return false
	}
	k := seenKey{fm.Origin, fm.Seq}
	if _, dup := f.seen[k]; dup {
		return true
	}
	if _, dup := f.old[k]; dup {
		return true
	}
	f.remember(k)
	f.deliver(fm)
	f.forward(fm, from)
	return true
}

func (f *Flooder) deliver(m *FloodMsg) {
	// Handlers may send; invoke them in registration order so delivery
	// side effects are deterministic. One registered during the delivery
	// waits for the next; one removed during it is skipped.
	for i, n := 0, len(f.handlers); i < n; i++ {
		if fn := f.handlers[i]; fn != nil {
			fn(m.Origin, m.Payload)
		}
	}
}

func (f *Flooder) forward(m *FloodMsg, from env.Addr) {
	var targets []env.Addr
	if mr, ok := f.rt.(dht.MulticastRouter); ok && m.Hint != nil && !f.robust {
		targets = mr.MulticastForward(from, m.Hint)
	} else {
		targets = f.rt.Neighbors()
	}
	for _, a := range targets {
		if a != from && a != m.Origin {
			f.env.Send(a, m)
		}
	}
}

// remember records a flood as seen, retiring a generation every ten minutes.
func (f *Flooder) remember(k seenKey) {
	if now := f.env.Now(); now.Sub(f.rotated) > 10*time.Minute {
		f.old, f.seen, f.rotated = f.seen, make(map[seenKey]struct{}), now
	}
	f.seen[k] = struct{}{}
}
