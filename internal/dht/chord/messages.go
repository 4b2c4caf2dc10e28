package chord

import (
	"pier/internal/env"
	"pier/internal/wire"
)

// findSuccMsg is routed around the ring toward successor(ID).
type findSuccMsg struct {
	ID     uint64
	Origin env.Addr
	Nonce  uint64
	Hops   uint16
}

func (m *findSuccMsg) WireSize() int { return wire.Size(m) }

// findSuccReply answers a findSuccMsg directly to the origin.
type findSuccReply struct {
	Nonce uint64
	Owner env.Addr
	Hops  uint16
}

func (m *findSuccReply) WireSize() int { return wire.Size(m) }

// getPredMsg asks a node for its predecessor and successor list.
type getPredMsg struct {
	Origin env.Addr
	Nonce  uint64
}

func (m *getPredMsg) WireSize() int { return wire.Size(m) }

type getPredReply struct {
	Nonce     uint64
	HasPred   bool
	PredAddr  env.Addr
	PredID    uint64
	SuccAddrs []env.Addr
}

func (m *getPredReply) WireSize() int { return wire.Size(m) }

// notifyMsg tells the receiver the sender believes it is the receiver's
// predecessor.
type notifyMsg struct{ ID uint64 }

func (m *notifyMsg) WireSize() int { return wire.Size(m) }

type pingMsg struct {
	Origin env.Addr
	Nonce  uint64
}

func (m *pingMsg) WireSize() int { return wire.Size(m) }

type pongMsg struct{ Nonce uint64 }

func (m *pongMsg) WireSize() int { return wire.Size(m) }

// leaveMsg patches the ring around a gracefully departing node.
type leaveMsg struct {
	SuccAddr env.Addr
	SuccID   uint64
	PredAddr env.Addr
	PredID   uint64
}

func (m *leaveMsg) WireSize() int { return wire.Size(m) }
