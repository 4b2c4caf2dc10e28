package trace

import (
	"math"

	"pier/internal/wire"
)

// tagSpan is the wire tag owned by package trace (see the tag table
// in package wire: 120..129 are reserved for tracing).
const tagSpan byte = 120

func init() {
	wire.Register(tagSpan, func(c *wire.Codec, s *Span) {
		c.Byte((*byte)(&s.Stage))
		c.Addr(&s.Node)
		c.Varint(&s.Start)
		wire.Signed(c, &s.Dur)
		c.String(&s.Note)
		seq := uint64(s.Seq)
		c.Uvarint(&seq)
		if !c.Decoding() {
			return
		}
		// Spans arrive over the network inside result frames; a
		// crafted stage would index past the metrics stage array,
		// and a negative duration would corrupt latency histograms.
		switch {
		case !s.Stage.Valid():
			c.Fail("span stage out of range")
		case s.Dur < 0:
			c.Fail("negative span duration")
		case seq > math.MaxUint32:
			c.Fail("span sequence out of range")
		}
		s.Seq = uint32(seq)
	})
}
