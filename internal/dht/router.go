package dht

import "pier/internal/env"

// Router is the paper's routing-layer API (Table 1):
//
//	lookup(key) -> ipaddr
//	join(landmark)
//	leave()
//	locationMapChange()
//
// plus the introspection calls the upper layers need: Owns (is this
// node currently responsible for key?), Neighbors (the overlay links,
// used by the flooding multicast), and the lookup and size figures the
// statistics catalog feeds to the optimizer.
type Router interface {
	// Lookup asynchronously resolves the node currently responsible for
	// k and invokes cb with its address. If the key maps locally the
	// callback runs synchronously (§3.2.1 footnote 3). cb may be invoked
	// with env.NilAddr if the lookup cannot complete (e.g. routed into a
	// failed node and timed out).
	Lookup(k Key, cb func(owner env.Addr))

	// Join attaches to the overlay network reachable via landmark, or
	// creates a new single-node network if landmark is env.NilAddr.
	Join(landmark env.Addr)

	// Leave departs gracefully, handing the node's key-space
	// responsibility to a peer, whose address is returned (env.NilAddr
	// if there is none). The provider transfers stored items to that
	// peer before the routing state is torn down.
	Leave() env.Addr

	// OnLocationMapChange registers a callback invoked whenever the set
	// of keys mapped to this node changes (zone split, takeover).
	OnLocationMapChange(func())

	// Owns reports whether this node is currently responsible for k.
	Owns(k Key) bool

	// Neighbors returns the current overlay neighbors.
	Neighbors() []env.Addr

	// Ready reports whether the node has joined and owns some portion of
	// the key space.
	Ready() bool

	// HandleMessage gives the router a chance to consume an incoming
	// message. It returns false if the message is not a routing message.
	HandleMessage(from env.Addr, m env.Message) bool

	// LookupStats reports how many lookups this node initiated and the
	// total overlay hops their answers traversed (§5.5.1's analysis
	// input).
	LookupStats() (count, hops int64)

	// EstimateNodes estimates the overlay size n from the node's own
	// routing state (CAN zone volume, Chord successor density), without
	// any global census.
	EstimateNodes() int

	// Share is this node's exact share of the key space, in units of
	// WholeSpace: the volume of the keys Owns answers true for. 0 means
	// unknown (not ready, or no predecessor yet). The shares of nodes
	// that partition the space sum to exactly WholeSpace, which is how
	// a Bloom collector knows that every owner has reported.
	Share() uint64
}

// WholeSpace is the fixed-point value of the whole key space in
// Router.Share: 2^63, so that any one share fits a uint64.
const WholeSpace uint64 = 1 << 63

// MulticastRouter is an optional Router refinement that prunes flood
// forwarding using overlay geometry, in the spirit of directed flooding
// over CAN (the paper's content-based multicast [18] builds on CAN
// multicast). Routers that do not implement it get plain neighbor
// flooding with duplicate suppression.
type MulticastRouter interface {
	// MulticastHint returns an opaque geometric hint stored in flood
	// messages originated here (CAN: the origin zone's center point).
	MulticastHint() []uint32

	// MulticastForward appends to dst the neighbors to forward a flood
	// message to and returns the result. from is the neighbor the message
	// arrived over (env.NilAddr at the origin); hint is the originator's
	// MulticastHint.
	MulticastForward(dst []env.Addr, from env.Addr, hint []uint32) []env.Addr
}
