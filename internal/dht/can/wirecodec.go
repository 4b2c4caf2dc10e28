package can

// Wire descriptions of the CAN control protocol (message types in
// messages.go). Neighbor maps are written with sorted keys so the
// encoding is deterministic.

import (
	"pier/internal/env"
	"pier/internal/wire"
)

const (
	tagLookupMsg byte = 48 + iota
	tagLookupReply
	tagJoinReq
	tagJoinReply
	tagNeighborUpdate
	tagTakeoverNotice
	tagLeaveNotice
)

func init() {
	wire.Register(tagLookupMsg, func(c *wire.Codec, l *lookupMsg) {
		wire.Slice(c, &l.Point, 1, wire.Unsigned[uint32])
		c.Addr(&l.Origin)
		c.Uvarint(&l.Nonce)
		wire.Unsigned(c, &l.Hops)
	})

	wire.Register(tagLookupReply, func(c *wire.Codec, l *lookupReply) {
		c.Uvarint(&l.Nonce)
		wire.Unsigned(c, &l.Hops)
	})

	wire.Register(tagJoinReq, func(c *wire.Codec, j *joinReq) {
		wire.Slice(c, &j.Point, 1, wire.Unsigned[uint32])
		c.Addr(&j.Joiner)
		wire.Unsigned(c, &j.Hops)
	})

	wire.Register(tagJoinReply, func(c *wire.Codec, j *joinReply) {
		zoneFields(c, &j.Zone)
		nbrsField(c, &j.Neighbors)
	})

	wire.Register(tagNeighborUpdate, func(c *wire.Codec, u *neighborUpdate) {
		zonesField(c, &u.Zones)
		nbrsField(c, &u.Nbrs)
		c.Fixed64(&u.Digest)
		if c.Decoding() && len(u.Zones) == 0 && len(u.Nbrs) > 0 {
			c.Fail("can: neighbor table without zones")
		}
	})

	wire.Register(tagTakeoverNotice, func(c *wire.Codec, t *takeoverNotice) {
		c.Addr(&t.Dead)
		zonesField(c, &t.Zones)
	})

	wire.Register(tagLeaveNotice, func(c *wire.Codec, l *leaveNotice) {
		zonesField(c, &l.Zones)
		nbrsField(c, &l.Nbrs)
	})
}

func zoneFields(c *wire.Codec, z *Zone) {
	n := c.Len(len(z.Lo), 2) // each dimension carries at least lo+hi
	if c.Decoding() && n > 0 {
		z.Lo = make([]uint64, 0, wire.SliceCap(n))
		z.Hi = make([]uint64, 0, wire.SliceCap(n))
	}
	for i := 0; i < n && c.Err() == nil; i++ {
		if c.Decoding() {
			z.Lo, z.Hi = append(z.Lo, 0), append(z.Hi, 0)
		}
		c.Uvarint(&z.Lo[i])
		c.Uvarint(&z.Hi[i])
	}
	c.Int(&z.Depth)
}

// zonesField is a zone list: every zone carries at least a dims count
// and a depth.
func zonesField(c *wire.Codec, zs *[]Zone) { wire.Slice(c, zs, 2, zoneFields) }

// nbrsField is a neighbor map. Only writing walks it in sorted key
// order: a sum does not care, and neighborUpdate is most of what an idle
// overlay sends, so counting must neither allocate nor sort.
func nbrsField(c *wire.Codec, m *map[env.Addr][]Zone) {
	n := c.Len(len(*m), 2) // addr length prefix + zones count, minimum
	switch {
	case c.Decoding():
		if n > 0 {
			*m = make(map[env.Addr][]Zone, wire.SliceCap(n))
		}
		for i := 0; i < n && c.Err() == nil; i++ {
			var a env.Addr
			var zs []Zone
			c.Addr(&a)
			zonesField(c, &zs)
			(*m)[a] = zs
		}
	case c.Counting():
		for a, zs := range *m {
			c.Addr(&a)
			zonesField(c, &zs)
		}
	default:
		for _, a := range env.SortedKeys(*m) {
			zs := (*m)[a]
			c.Addr(&a)
			zonesField(c, &zs)
		}
	}
}
