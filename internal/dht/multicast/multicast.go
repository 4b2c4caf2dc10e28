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
	env     env.Env
	rt      dht.Router
	robust  bool
	deliver func(origin env.Addr, payload env.Message)
	seq     uint64
	// seen and old suppress duplicates: floods are recorded in seen,
	// which every ten minutes becomes old while the previous old — floods
	// ten to twenty minutes stale — is dropped whole. Nothing is scanned.
	seen, old map[seenKey]struct{}
	rotated   time.Time
}

type seenKey struct {
	origin env.Addr
	seq    uint64
}

// New creates a flooder over the node's router that hands each flood,
// this node's own multicasts included, to deliver once. robust selects
// full neighbor flooding (redundant copies that survive undetected node
// failures) over directed flooding, the efficient default.
func New(e env.Env, rt dht.Router, robust bool, deliver func(origin env.Addr, payload env.Message)) *Flooder {
	return &Flooder{env: e, rt: rt, robust: robust, deliver: deliver, seen: make(map[seenKey]struct{}), rotated: e.Now()}
}

// Multicast delivers payload to every reachable node in the overlay.
func (f *Flooder) Multicast(payload env.Message) {
	f.seq++
	m := &FloodMsg{Origin: f.env.Addr(), Seq: f.seq, Payload: payload}
	if mr, ok := f.rt.(dht.MulticastRouter); ok {
		m.Hint = mr.MulticastHint()
	}
	f.remember(seenKey{m.Origin, m.Seq})
	f.deliver(m.Origin, m.Payload)
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
	f.deliver(fm.Origin, fm.Payload)
	f.forward(fm, from)
	return true
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
