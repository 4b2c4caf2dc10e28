package stats

// Wire description of the statistics catalog's summary payload — the
// one message type this package puts into the DHT (it rides inside the
// provider's put/get/transfer envelopes on real networks).

import "pier/internal/wire"

// Wire tag owned by package stats (see the tag table in package wire).
const tagSummary byte = 100

func init() {
	// Summaries feed the optimizer: a frame no honest publisher can
	// produce (negative counters, hashes out of KMV order) must fail at
	// decode, not skew every reader's cost estimates.
	wire.Register(tagSummary, func(c *wire.Codec, s *Summary) {
		c.String(&s.Table)
		c.Varint(&s.Nodes)
		c.Varint(&s.Tuples)
		c.Varint(&s.Bytes)
		if c.Decoding() && (s.Nodes < 0 || s.Tuples < 0 || s.Bytes < 0) {
			c.Fail("negative summary counter")
		}
		hasKeys := s.Keys != nil
		if c.Bool(&hasKeys); !hasKeys {
			return
		}
		if c.Decoding() {
			s.Keys = new(Sketch)
		}
		k := s.Keys
		c.Int(&k.K)
		if c.Decoding() && (k.K < 1 || k.K > 1<<20) {
			c.Fail("sketch capacity out of range")
		}
		// Hashes are high-entropy: fixed words beat varints.
		c.Words(&k.Hashes)
		if !c.Decoding() {
			return
		}
		if len(k.Hashes) > k.K {
			c.Fail("sketch holds more hashes than its capacity")
		}
		for i := 1; i < len(k.Hashes); i++ {
			if k.Hashes[i] <= k.Hashes[i-1] {
				c.Fail("sketch hashes out of order")
				break
			}
		}
	})
}
