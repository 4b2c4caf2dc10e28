package index

// Binary wire codecs for the index subsystem's three payload types —
// entries and markers stored in trie nodes, definitions stored in DefNS
// and multicast as announces.

import (
	"pier/internal/core"
	"pier/internal/env"
	"pier/internal/wire"
)

// Wire tags owned by package index (see the tag table in package wire).
const (
	tagEntry  byte = 110
	tagMarker byte = 111
	tagDef    byte = 112
)

func init() {

	wire.Register(tagEntry, &Entry{},
		func(e *wire.Encoder, m env.Message) {
			en := m.(*Entry)
			// Encoded keys are high-entropy: a fixed word beats a varint.
			e.Fixed64(en.K)
			e.String(en.RID)
			e.Varint(en.IID)
			e.Message(en.T)
		},
		func(d *wire.Decoder) env.Message {
			en := &Entry{K: d.Fixed64(), RID: d.String(), IID: d.Varint()}
			m := d.Message()
			if m == nil {
				if d.Err() == nil {
					d.Fail("index entry without tuple")
				}
				return en
			}
			t, ok := m.(*core.Tuple)
			if !ok {
				d.Fail("index entry payload is not a tuple")
				return en
			}
			en.T = t
			return en
		})

	wire.Register(tagMarker, &Marker{},
		func(e *wire.Encoder, m env.Message) {},
		func(d *wire.Decoder) env.Message { return &Marker{} })

	wire.Register(tagDef, &Def{},
		func(e *wire.Encoder, m env.Message) {
			def := m.(*Def)
			e.String(def.Name)
			e.String(def.Table)
			e.String(def.Col)
			e.Int(def.ColIdx)
		},
		func(d *wire.Decoder) env.Message {
			def := &Def{Name: d.String(), Table: d.String(), Col: d.String(), ColIdx: d.Int()}
			// Hostile definitions must fail at the frame, not poison a
			// publisher's def cache: Validate is cheap and total.
			if d.Err() == nil && def.Validate() != nil {
				d.Fail("invalid index definition")
			}
			return def
		})
}
