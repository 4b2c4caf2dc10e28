package can

// Binary wire codecs for the CAN control protocol (message types in
// messages.go). Neighbor maps are encoded with sorted keys so the
// encoding is deterministic.

import (
	"sort"

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
	wire.Register(tagLookupMsg, &lookupMsg{},
		func(e *wire.Encoder, m env.Message) {
			l := m.(*lookupMsg)
			encodePoint(e, l.Point)
			e.Addr(l.Origin)
			e.Uvarint(l.Nonce)
			e.Uvarint(uint64(l.Hops))
		},
		func(d *wire.Decoder) env.Message {
			return &lookupMsg{
				Point:  decodePoint(d),
				Origin: d.Addr(),
				Nonce:  d.Uvarint(),
				Hops:   uint16(d.Uvarint()),
			}
		})

	wire.Register(tagLookupReply, &lookupReply{},
		func(e *wire.Encoder, m env.Message) {
			l := m.(*lookupReply)
			e.Uvarint(l.Nonce)
			e.Uvarint(uint64(l.Hops))
		},
		func(d *wire.Decoder) env.Message {
			return &lookupReply{Nonce: d.Uvarint(), Hops: uint16(d.Uvarint())}
		})

	wire.Register(tagJoinReq, &joinReq{},
		func(e *wire.Encoder, m env.Message) {
			j := m.(*joinReq)
			encodePoint(e, j.Point)
			e.Addr(j.Joiner)
			e.Uvarint(uint64(j.Hops))
		},
		func(d *wire.Decoder) env.Message {
			return &joinReq{
				Point:  decodePoint(d),
				Joiner: d.Addr(),
				Hops:   uint16(d.Uvarint()),
			}
		})

	wire.Register(tagJoinReply, &joinReply{},
		func(e *wire.Encoder, m env.Message) {
			j := m.(*joinReply)
			encodeZone(e, j.Zone)
			encodeNbrs(e, j.Neighbors)
		},
		func(d *wire.Decoder) env.Message {
			return &joinReply{Zone: decodeZone(d), Neighbors: decodeNbrs(d)}
		})

	wire.Register(tagNeighborUpdate, &neighborUpdate{},
		func(e *wire.Encoder, m env.Message) {
			u := m.(*neighborUpdate)
			encodeZones(e, u.Zones)
			encodeNbrs(e, u.Nbrs)
		},
		func(d *wire.Decoder) env.Message {
			return &neighborUpdate{Zones: decodeZones(d), Nbrs: decodeNbrs(d)}
		})

	wire.Register(tagTakeoverNotice, &takeoverNotice{},
		func(e *wire.Encoder, m env.Message) {
			t := m.(*takeoverNotice)
			e.Addr(t.Dead)
			encodeZones(e, t.Zones)
		},
		func(d *wire.Decoder) env.Message {
			return &takeoverNotice{Dead: d.Addr(), Zones: decodeZones(d)}
		})

	wire.Register(tagLeaveNotice, &leaveNotice{},
		func(e *wire.Encoder, m env.Message) {
			l := m.(*leaveNotice)
			encodeZones(e, l.Zones)
			encodeNbrs(e, l.Nbrs)
		},
		func(d *wire.Decoder) env.Message {
			return &leaveNotice{Zones: decodeZones(d), Nbrs: decodeNbrs(d)}
		})
}

func encodePoint(e *wire.Encoder, p []uint32) {
	e.Len(len(p))
	for _, c := range p {
		e.Uvarint(uint64(c))
	}
}

func decodePoint(d *wire.Decoder) []uint32 {
	n := d.Len()
	if n == 0 {
		return nil
	}
	p := make([]uint32, 0, wire.SliceCap(n))
	for i := 0; i < n && d.Err() == nil; i++ {
		p = append(p, uint32(d.Uvarint()))
	}
	return p
}

func encodeZone(e *wire.Encoder, z Zone) {
	e.Len(z.Dims())
	for i := range z.Lo {
		e.Uvarint(z.Lo[i])
		e.Uvarint(z.Hi[i])
	}
	e.Int(z.Depth)
}

func decodeZone(d *wire.Decoder) Zone {
	n := d.LenMin(2) // each dimension carries at least lo+hi
	z := Zone{}
	if n > 0 {
		z.Lo = make([]uint64, 0, wire.SliceCap(n))
		z.Hi = make([]uint64, 0, wire.SliceCap(n))
		for i := 0; i < n && d.Err() == nil; i++ {
			z.Lo = append(z.Lo, d.Uvarint())
			z.Hi = append(z.Hi, d.Uvarint())
		}
	}
	z.Depth = d.Int()
	return z
}

func encodeZones(e *wire.Encoder, zs []Zone) {
	e.Len(len(zs))
	for _, z := range zs {
		encodeZone(e, z)
	}
}

func decodeZones(d *wire.Decoder) []Zone {
	n := d.LenMin(2) // every zone carries at least a dims count + depth
	if n == 0 {
		return nil
	}
	zs := make([]Zone, 0, wire.SliceCap(n))
	for i := 0; i < n && d.Err() == nil; i++ {
		zs = append(zs, decodeZone(d))
	}
	return zs
}

func encodeNbrs(e *wire.Encoder, m map[env.Addr][]Zone) {
	addrs := make([]env.Addr, 0, len(m))
	for a := range m {
		addrs = append(addrs, a)
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	e.Len(len(addrs))
	for _, a := range addrs {
		e.Addr(a)
		encodeZones(e, m[a])
	}
}

func decodeNbrs(d *wire.Decoder) map[env.Addr][]Zone {
	n := d.LenMin(2) // addr length prefix + zones count, minimum
	if n == 0 {
		return nil
	}
	m := make(map[env.Addr][]Zone, wire.SliceCap(n))
	for i := 0; i < n && d.Err() == nil; i++ {
		a := d.Addr()
		m[a] = decodeZones(d)
	}
	return m
}
