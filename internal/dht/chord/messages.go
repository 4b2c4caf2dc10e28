package chord

import "pier/internal/env"

// findSuccMsg is routed around the ring toward successor(ID).
type findSuccMsg struct {
	ID     uint64
	Origin env.Addr
	Nonce  uint64
	Hops   uint16
}

func (m *findSuccMsg) WireSize() int { return env.HeaderSize + 8 + env.AddrSize + 10 }

// findSuccReply answers a findSuccMsg directly to the origin.
type findSuccReply struct {
	Nonce uint64
	Owner env.Addr
	Hops  uint16
}

func (m *findSuccReply) WireSize() int { return env.HeaderSize + 8 + env.AddrSize + 2 }

// getPredMsg asks a node for its predecessor and successor list.
type getPredMsg struct {
	Origin env.Addr
	Nonce  uint64
}

func (m *getPredMsg) WireSize() int { return env.HeaderSize + env.AddrSize + 8 }

type getPredReply struct {
	Nonce     uint64
	HasPred   bool
	PredAddr  env.Addr
	PredID    uint64
	SuccAddrs []env.Addr
}

func (m *getPredReply) WireSize() int {
	return env.HeaderSize + 17 + env.AddrSize*(1+len(m.SuccAddrs))
}

// notifyMsg tells the receiver the sender believes it is the receiver's
// predecessor.
type notifyMsg struct{ ID uint64 }

func (m *notifyMsg) WireSize() int { return env.HeaderSize + 8 }

type pingMsg struct {
	Origin env.Addr
	Nonce  uint64
}

func (m *pingMsg) WireSize() int { return env.HeaderSize + env.AddrSize + 8 }

type pongMsg struct{ Nonce uint64 }

func (m *pongMsg) WireSize() int { return env.HeaderSize + 8 }

// leaveMsg patches the ring around a gracefully departing node.
type leaveMsg struct {
	SuccAddr env.Addr
	SuccID   uint64
	PredAddr env.Addr
	PredID   uint64
}

func (m *leaveMsg) WireSize() int { return env.HeaderSize + 2*(env.AddrSize+8) }
