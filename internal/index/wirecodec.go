package index

// Wire descriptions of the index subsystem's three payload types —
// entries and markers stored in trie nodes, definitions stored in DefNS
// and multicast as announces.

import "pier/internal/wire"

// Wire tags owned by package index (see the tag table in package wire).
const (
	tagEntry  byte = 110
	tagMarker byte = 111
	tagDef    byte = 112
)

func init() {
	wire.Register(tagEntry, func(c *wire.Codec, en *Entry) {
		// Encoded keys are high-entropy: a fixed word beats a varint.
		c.Fixed64(&en.K)
		c.String(&en.RID)
		c.Varint(&en.IID)
		wire.Required(c, &en.T) // the executor relies on every entry carrying a tuple
	})

	wire.Register(tagMarker, func(*wire.Codec, *Marker) {})

	wire.Register(tagDef, func(c *wire.Codec, def *Def) {
		c.String(&def.Name)
		c.String(&def.Table)
		c.String(&def.Col)
		c.Int(&def.ColIdx)
		// Hostile definitions must fail at the frame, not poison a
		// publisher's def cache: Validate is cheap and total.
		if c.Decoding() && def.Validate() != nil {
			c.Fail("invalid index definition")
		}
	})
}
