package pier

// Wire description of the catalog's schema payload (the only message
// type owned by the root package).

import (
	"pier/internal/sql"
	"pier/internal/wire"
)

const tagSchemaPayload byte = 90

func init() {
	wire.Register(tagSchemaPayload, func(c *wire.Codec, s *schemaPayload) {
		wire.Slice(c, &s.Cols, 1, (*wire.Codec).String)
		c.String(&s.Key)
		wire.Slice(c, &s.Indexes, 1, func(c *wire.Codec, ix *sql.Index) {
			c.String(&ix.Name)
			c.String(&ix.Col)
		})
	})
}
