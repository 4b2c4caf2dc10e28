package pier

import (
	"fmt"
	"time"

	"pier/internal/dht/storage"
	"pier/internal/wire"
)

// The DHT-backed catalog: the paper notes that once added, "the catalog
// facility will reuse the DHT and query processor" (§3.3). Schemas are
// soft state like everything else — published under the CatalogNS
// namespace keyed by table name, renewed by whoever owns the schema
// definition.

// CatalogNS is the namespace holding table schemas.
const CatalogNS = "pier.catalog"

// schemaPayload is the stored form of a table schema: columns, primary
// key, and any PHT indexes declared over its columns.
type schemaPayload struct {
	Cols    []string
	Key     string
	Indexes []SQLIndex
}

// WireSize implements env.Message.
func (s *schemaPayload) WireSize() int { return wire.Size(s) }

// RegisterTable publishes a table schema into the DHT catalog with the
// given lifetime (zero = a long default). Any node can then plan SQL
// against the table by name.
func (n *Node) RegisterTable(t SQLTable, lifetime time.Duration) {
	if lifetime <= 0 {
		lifetime = time.Hour
	}
	n.provider.Put(CatalogNS, t.Name, 1, &schemaPayload{Cols: t.Cols, Key: t.Key, Indexes: t.Indexes}, lifetime)
}

// LookupTable resolves a table schema from the DHT catalog; cb receives
// nil if the schema is unknown (or unreachable).
func (n *Node) LookupTable(name string, cb func(*SQLTable)) {
	n.provider.Get(CatalogNS, name, func(items []*storage.Item) {
		for _, it := range items {
			if sp, ok := it.Payload.(*schemaPayload); ok {
				cb(&SQLTable{Name: name, Cols: sp.Cols, Key: sp.Key, Indexes: sp.Indexes})
				return
			}
		}
		cb(nil)
	})
}

// QuerySQL plans src against schemas fetched from the DHT catalog and
// runs it. tables lists the referenced table names (the FROM clause);
// done receives the query id or the first error. Results stream into fn.
func (n *Node) QuerySQL(src string, tables []string, fn ResultFunc, done func(id uint64, err error)) {
	cat := Catalog{}
	remaining := len(tables)
	if remaining == 0 {
		done(0, fmt.Errorf("pier: QuerySQL requires the referenced table names"))
		return
	}
	failed := false
	for _, name := range tables {
		name := name
		n.LookupTable(name, func(t *SQLTable) {
			if failed {
				return
			}
			if t == nil {
				failed = true
				done(0, fmt.Errorf("pier: table %q not in the DHT catalog", name))
				return
			}
			cat[name] = *t
			remaining--
			if remaining > 0 {
				return
			}
			plan, err := ParseSQL(src, cat)
			if err != nil {
				done(0, err)
				return
			}
			id, err := n.Query(plan, fn)
			done(id, err)
		})
	}
}
