package can

import (
	"pier/internal/env"
	"pier/internal/wire"
)

// lookupMsg is routed greedily toward Point; the owner replies directly
// to Origin.
type lookupMsg struct {
	Point  []uint32
	Origin env.Addr
	Nonce  uint64
	Hops   uint16
}

func (m *lookupMsg) WireSize() int { return wire.Size(m) }

// lookupReply is sent by the owner of the looked-up point directly to the
// origin; the sender address is the answer.
type lookupReply struct {
	Nonce uint64
	Hops  uint16
}

func (m *lookupReply) WireSize() int { return wire.Size(m) }

// joinReq is routed to the owner of Point, who splits its zone and hands
// the half containing Point to Joiner.
type joinReq struct {
	Point  []uint32
	Joiner env.Addr
	Hops   uint16
}

func (m *joinReq) WireSize() int { return wire.Size(m) }

// joinReply carries the new node's zone and a snapshot of the splitter's
// neighborhood so the joiner can build its routing table.
type joinReply struct {
	Zone      Zone
	Neighbors map[env.Addr][]Zone
}

func (m *joinReply) WireSize() int { return wire.Size(m) }

// neighborUpdate is the maintenance message; what it carries is its form:
//
//	full   Zones Nbrs Digest  the sender's table, to all neighbors on the first tick
//	                          after it changed and to one that pulled
//	bare   Digest             every other tick's keepalive: "alive, table unchanged"
//	pull   (nothing)          answers a bare whose Digest the receiver does not hold
//	zones  Zones              a zone change told at once; the table follows on the tick
type neighborUpdate struct {
	Zones  []Zone
	Nbrs   map[env.Addr][]Zone
	Digest uint64 // of Zones+Nbrs, by Router.table; never 0 when set
}

func (m *neighborUpdate) WireSize() int { return wire.Size(m) }

// takeoverNotice announces that the sender has adopted the zones of a
// failed or departed node.
type takeoverNotice struct {
	Dead  env.Addr
	Zones []Zone // the sender's full zone set after the takeover
}

func (m *takeoverNotice) WireSize() int { return wire.Size(m) }

// leaveNotice hands the sender's zones to the receiver on graceful
// departure; Nbrs lets the receiver stitch the neighborhood together.
type leaveNotice struct {
	Zones []Zone
	Nbrs  map[env.Addr][]Zone
}

func (m *leaveNotice) WireSize() int { return wire.Size(m) }
