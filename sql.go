package pier

import "pier/internal/sql"

// SQLTable describes a relation's schema to the SQL planner: column
// names and the primary-key column used as the base resourceID.
type SQLTable = sql.Table

// Catalog maps table names to schemas for ParseSQL.
type Catalog = sql.Catalog

// ParseSQL parses a single-block SELECT over one or two tables and
// lowers it to an executable Plan. The paper lists declarative query
// parsing as future work layered above the query processor (§3.3); this
// front end covers all of §2.1's example queries, including joins,
// GROUP BY / HAVING with aliases, and optional trailing clauses:
// `USING STRATEGY '<name>'` picks the join algorithm, `EVERY '<dur>'
// [WINDOWS <n>]` makes the query continuous (§7), and `WAIT '<dur>'`
// sets its gather wait: AggWait, or for a join BloomWait, the fallback
// by which a Bloom collector emits if not every owner of the key space
// has reported yet.
//
// Sargable predicates (col ⊙ literal conjuncts, any of the six
// comparison operators in either orientation) on columns the catalog
// declares an index for lower to an IndexRangeScan access path; see
// Node.Exec for the CREATE INDEX statement that declares one.
//
// An `EXPLAIN TRACE <select>` prefix lowers the inner SELECT with the
// plan's Trace flag forced on: every participating node records span
// events and the initiator assembles them into a trace tree (see
// Node.Trace).
func ParseSQL(src string, cat Catalog) (*Plan, error) {
	return sql.Plan(src, cat)
}
