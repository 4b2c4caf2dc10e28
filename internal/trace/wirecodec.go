package trace

import (
	"pier/internal/env"
	"pier/internal/wire"
)

// tagSpan is the wire tag owned by package trace (see the tag table
// in package wire: 120..129 are reserved for tracing).
const tagSpan byte = 120

func init() {
	wire.Register(tagSpan, &Span{},
		func(e *wire.Encoder, m env.Message) {
			s := m.(*Span)
			e.Byte(byte(s.Stage))
			e.Addr(s.Node)
			e.Varint(s.Start)
			e.Duration(s.Dur)
			e.String(s.Note)
			e.Uvarint(uint64(s.Seq))
		},
		func(d *wire.Decoder) env.Message {
			s := &Span{
				Stage: Stage(d.Byte()),
				Node:  d.Addr(),
				Start: d.Varint(),
				Dur:   d.Duration(),
				Note:  d.String(),
			}
			seq := d.Uvarint()
			if d.Err() != nil {
				return s
			}
			// Spans arrive over the network inside result frames; a
			// crafted stage would index past the metrics stage array,
			// and a negative duration would corrupt latency histograms.
			if !s.Stage.Valid() {
				d.Fail("span stage out of range")
				return s
			}
			if s.Dur < 0 {
				d.Fail("negative span duration")
				return s
			}
			if seq > 1<<32-1 {
				d.Fail("span sequence out of range")
				return s
			}
			s.Seq = uint32(seq)
			return s
		})
}
