package sql

import (
	"fmt"
	"slices"
	"strings"

	"pier/internal/core"
	"pier/internal/wire"
)

// Table describes a relation to the planner: its column names, the
// primary-key column (which PIER uses as the base resourceID, §3.2.3),
// and any Prefix Hash Tree indexes declared over its columns.
type Table struct {
	Name    string
	Cols    []string
	Key     string
	Indexes []Index
}

// Index declares one PHT range index over a table column; the planner
// rewrites sargable predicates on Col into an IndexRangeScan over the
// index named Name.
type Index struct {
	Name string
	Col  string
}

// Catalog maps table names to schemas. The paper envisions these as the
// de-facto standard schemas of widely deployed software (§2.2d); here
// the application registers them.
type Catalog map[string]Table

// Col returns the index of a column, or -1.
func (t Table) Col(name string) int {
	for i, c := range t.Cols {
		if c == name {
			return i
		}
	}
	return -1
}

// Plan parses src and lowers it to an executable core.Plan. Both plain
// SELECT and EXPLAIN TRACE <select> are accepted; the latter lowers the
// inner SELECT with the plan's Trace flag forced on.
func Plan(src string, cat Catalog) (*core.Plan, error) {
	st, err := ParseStatement(src)
	if err != nil {
		return nil, err
	}
	pl := &planner{cat: cat}
	switch s := st.(type) {
	case *Stmt:
		pl.st = s
	case *ExplainStmt:
		pl.st, pl.trace = s.Select, true
	default:
		return nil, fmt.Errorf("sql: expected a SELECT statement")
	}
	return pl.lower()
}

// MustPlan is Plan for SQL text fixed in the program, such as an
// experiment's query: it panics if src does not plan against cat.
func MustPlan(src string, cat Catalog) *core.Plan {
	p, err := Plan(src, cat)
	if err != nil {
		panic(err)
	}
	return p
}

type planner struct {
	st    *Stmt
	cat   Catalog
	trace bool // EXPLAIN TRACE

	tables  []Table  // resolved FROM tables
	aliases []string // FROM aliases, same order
	offsets []int    // column offset of each table in the concatenated row
}

func (p *planner) lower() (*core.Plan, error) {
	if len(p.st.From) == 0 {
		return nil, fmt.Errorf("sql: no FROM tables")
	}
	plan := &core.Plan{Trace: p.trace}
	off := 0
	for _, ti := range p.st.From {
		tb, ok := p.cat[ti.Name]
		if !ok {
			return nil, fmt.Errorf("sql: unknown table %q", ti.Name)
		}
		p.tables = append(p.tables, tb)
		p.aliases = append(p.aliases, ti.Alias)
		p.offsets = append(p.offsets, off)
		off += len(tb.Cols)
		// The key column is the base resourceID; -1 when there is none.
		plan.Tables = append(plan.Tables, core.TableRef{NS: tb.Name, RIDCol: tb.Col(tb.Key)})
	}

	// WHERE: split conjuncts into per-table filters, equi-join pairs,
	// and cross-table residue (evaluated post-join, like the workload's
	// f(R.num3, S.num3) predicate).
	for _, c := range conjuncts(p.st.Where) {
		refs, err := p.tablesReferenced(c)
		if err != nil {
			return nil, err
		}
		// refs == 1, or an unqualified single-table predicate.
		dst, res := &plan.Tables[0].Filter, p.localResolver(0)
		switch {
		case len(p.tables) == 2 && refs == 3:
			if l, r, ok := p.asJoinPair(c); ok {
				plan.Tables[0].JoinCols = append(plan.Tables[0].JoinCols, l)
				plan.Tables[1].JoinCols = append(plan.Tables[1].JoinCols, r)
				continue
			}
			dst, res = &plan.PostFilter, p.concatResolver()
		case refs == 2 && len(p.tables) == 2:
			dst, res = &plan.Tables[1].Filter, p.localResolver(1)
		}
		e, err := p.toExpr(c, res)
		if err != nil {
			return nil, err
		}
		*dst = andExpr(*dst, e)
	}
	p.attachIndexScan(plan)

	if err := p.lowerProjection(plan); err != nil {
		return nil, err
	}
	if p.st.Strategy != "" {
		s, err := strategyByName(p.st.Strategy)
		if err != nil {
			return nil, err
		}
		plan.Strategy = s
	} else if len(plan.Tables) == 2 {
		// No USING STRATEGY clause: mark the join so the initiating
		// node's statistics catalog may substitute the cost-based choice
		// (§7 "Catalogs and Query Optimization"). The default strategy
		// stands wherever no catalog answers.
		plan.AutoStrategy = true
	}
	if p.st.Every > 0 {
		plan.Continuous, plan.Every, plan.Windows = true, p.st.Every, p.st.Windows
	}
	// WAIT is the gather wait of the query's last gather: the group
	// collectors of an aggregate, else the fallback of a join's Bloom
	// collectors (which emit earlier once the key space is covered).
	switch w := p.st.Wait; {
	case w == 0:
	case len(plan.Aggs) > 0:
		plan.AggWait = w
	case len(plan.Tables) == 2:
		plan.BloomWait = w
	default:
		return nil, fmt.Errorf("sql: WAIT needs an aggregate or a join")
	}
	if err := plan.Validate(); err != nil {
		return nil, err
	}
	return plan, nil
}

// lowerProjection handles the SELECT list, GROUP BY, and HAVING.
func (p *planner) lowerProjection(plan *core.Plan) error {
	aggs, err := p.collectAggregates()
	if err != nil {
		return err
	}
	if len(aggs) == 0 {
		if p.st.Having != nil || len(p.st.GroupBy) > 0 {
			return fmt.Errorf("sql: GROUP BY/HAVING require aggregates in SELECT")
		}
		if len(p.st.Select) == 1 && p.st.Select[0].Star {
			return nil // SELECT *: emit rows unchanged
		}
		for _, item := range p.st.Select {
			if item.Star {
				return fmt.Errorf("sql: * cannot be mixed with expressions")
			}
			e, err := p.toExpr(item.E, p.concatResolver())
			if err != nil {
				return err
			}
			plan.Output = append(plan.Output, e)
		}
		return nil
	}

	// Aggregation query: resolve GROUP BY on the pre-aggregation row.
	res := p.concatResolver()
	for _, g := range p.st.GroupBy {
		idx, err := res(g)
		if err != nil {
			return err
		}
		plan.GroupBy = append(plan.GroupBy, idx)
	}
	plan.Aggs = aggs
	// SELECT and HAVING see groupCols ++ aggResults; aliases defined in
	// SELECT are visible in HAVING (the paper's "HAVING cnt > 10").
	aliasDefs := map[string]Node{}
	for _, item := range p.st.Select {
		if item.Alias != "" {
			aliasDefs[item.Alias] = item.E
		}
	}
	for _, item := range p.st.Select {
		if item.Star {
			return fmt.Errorf("sql: * is not valid with aggregates")
		}
		e, err := p.toAggExpr(item.E, aggs, nil)
		if err != nil {
			return err
		}
		plan.Output = append(plan.Output, e)
	}
	if p.st.Having != nil {
		e, err := p.toAggExpr(p.st.Having, aggs, aliasDefs)
		if err != nil {
			return err
		}
		plan.Having = e
	}
	// A select list that is exactly the group columns, then the
	// aggregates, is the row a group emits anyway.
	identity := len(plan.Output) == len(plan.GroupBy)+len(aggs)
	for i, e := range plan.Output {
		c, ok := e.(*core.Col)
		identity = identity && ok && c.Idx == i
	}
	if identity {
		plan.Output = nil
	}
	return nil
}

var aggKinds = map[string]core.AggKind{
	"count": core.Count, "sum": core.Sum, "avg": core.Avg, "min": core.Min, "max": core.Max,
}

// aggOf resolves an aggregate call to its kind and argument column
// (-1 for count(*)); isAgg is false for any other call.
func (p *planner) aggOf(n *FuncCall) (a core.Aggregate, isAgg bool, err error) {
	kind, isAgg := aggKinds[n.Name]
	a = core.Aggregate{Kind: kind, Col: -1}
	switch {
	case !isAgg:
		return a, false, nil
	case n.Star && kind != core.Count:
		return a, true, fmt.Errorf("sql: only count(*) may use *")
	case n.Star:
		return a, true, nil
	case len(n.Args) != 1:
		return a, true, fmt.Errorf("sql: %s takes one column argument", n.Name)
	}
	cr, ok := n.Args[0].(*ColRef)
	if !ok {
		return a, true, fmt.Errorf("sql: %s argument must be a column", n.Name)
	}
	a.Col, err = p.concatResolver()(cr)
	return a, true, err
}

// collectAggregates finds aggregate calls in SELECT and HAVING,
// deduplicated by (kind, column).
func (p *planner) collectAggregates() ([]core.Aggregate, error) {
	var out []core.Aggregate
	var collect func(n Node) error
	collect = func(n Node) error {
		switch n := n.(type) {
		case *FuncCall:
			a, isAgg, err := p.aggOf(n)
			switch {
			case err != nil:
				return err
			case isAgg:
				if !slices.Contains(out, a) {
					out = append(out, a)
				}
				return nil
			}
			for _, arg := range n.Args {
				if err := collect(arg); err != nil {
					return err
				}
			}
			return nil
		case *BinOp:
			if err := collect(n.L); err != nil {
				return err
			}
			return collect(n.R)
		case *UnOp:
			return collect(n.E)
		default:
			return nil
		}
	}
	for _, item := range p.st.Select {
		if item.Star {
			continue
		}
		if err := collect(item.E); err != nil {
			return nil, err
		}
	}
	if p.st.Having != nil {
		if err := collect(p.st.Having); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// toAggExpr rewrites an expression over the aggregation output row:
// group columns map to their position, aggregate calls to their slot,
// and aliases expand to their definitions.
func (p *planner) toAggExpr(n Node, aggs []core.Aggregate, aliases map[string]Node) (core.Expr, error) {
	switch n := n.(type) {
	case *FuncCall:
		a, isAgg, err := p.aggOf(n)
		if err != nil {
			return nil, err
		}
		if isAgg {
			if j := slices.Index(aggs, a); j >= 0 {
				return &core.Col{Idx: len(p.st.GroupBy) + j}, nil
			}
			return nil, fmt.Errorf("sql: aggregate %s not collected", n.Name)
		}
		args := make([]core.Expr, len(n.Args))
		for i, a := range n.Args {
			e, err := p.toAggExpr(a, aggs, aliases)
			if err != nil {
				return nil, err
			}
			args[i] = e
		}
		return &core.Call{Name: n.Name, Args: args}, nil
	case *ColRef:
		// Alias of a SELECT item?
		if n.Table == "" && aliases != nil {
			if def, ok := aliases[n.Col]; ok {
				return p.toAggExpr(def, aggs, nil)
			}
		}
		idx, err := p.concatResolver()(n)
		if err != nil {
			return nil, err
		}
		for k, g := range p.st.GroupBy {
			gidx, gerr := p.concatResolver()(g)
			if gerr == nil && gidx == idx {
				return &core.Col{Idx: k}, nil
			}
		}
		return nil, fmt.Errorf("sql: column %s is neither grouped nor aggregated", n.Col)
	case *BinOp:
		l, err := p.toAggExpr(n.L, aggs, aliases)
		if err != nil {
			return nil, err
		}
		r, err := p.toAggExpr(n.R, aggs, aliases)
		if err != nil {
			return nil, err
		}
		return binToCore(n.Op, l, r)
	case *UnOp:
		e, err := p.toAggExpr(n.E, aggs, aliases)
		if err != nil {
			return nil, err
		}
		return unToCore(n.Op, e)
	default:
		return p.toExpr(n, func(*ColRef) (int, error) {
			return 0, fmt.Errorf("sql: unexpected column in aggregate context")
		})
	}
}

// attachIndexScan rewrites the sargable part of a single-table WHERE
// clause into an IndexRangeScan: conjuncts of the shape col ⊙ literal
// (either orientation) on an indexed column tighten an encoded-key
// interval, and the tightest non-trivial interval is attached to the
// plan with AutoAccess set, so the initiating node's statistics catalog
// can still fall back to the full scan when the range is too broad.
// The table's Filter is left intact as the exact residual predicate —
// the order-preserving encoding is (deliberately) lossy, so the index
// only prunes, never decides.
func (p *planner) attachIndexScan(plan *core.Plan) {
	if len(p.tables) != 1 || len(p.tables[0].Indexes) == 0 {
		return
	}
	tb := p.tables[0]
	type interval struct {
		lo, hi  uint64
		bounded bool
	}
	byCol := map[int]*interval{}
	for _, c := range conjuncts(p.st.Where) {
		ci, op, v, ok := p.sargable(c)
		if !ok {
			continue
		}
		iv := byCol[ci]
		if iv == nil {
			iv = &interval{lo: 0, hi: ^uint64(0)}
			byCol[ci] = iv
		}
		k := wire.OrderedKey(v)
		// The encoding is non-strictly monotone, so strict bounds stay
		// inclusive here (values sharing the boundary's encoding must
		// survive pruning); the residual Filter applies the strictness.
		switch op {
		case core.EQ:
			if k > iv.lo {
				iv.lo = k
			}
			if k < iv.hi {
				iv.hi = k
			}
		case core.LT, core.LE:
			if k < iv.hi {
				iv.hi = k
			}
		case core.GT, core.GE:
			if k > iv.lo {
				iv.lo = k
			}
		default: // NE prunes nothing
			continue
		}
		iv.bounded = true
	}
	for _, idx := range tb.Indexes {
		ci := tb.Col(idx.Col)
		iv := byCol[ci]
		if ci < 0 || iv == nil || !iv.bounded {
			continue
		}
		plan.Tables[0].IndexScan = &core.IndexRangeScan{Index: idx.Name, Lo: iv.lo, Hi: iv.hi}
		plan.AutoAccess = true
		return
	}
}

// sargable recognizes a conjunct of the shape col ⊙ literal or
// literal ⊙ col over the single FROM table, normalizing all six
// comparison operators symmetrically (5 < x is x > 5, and so on) —
// never by desugaring some into others. It returns the column index
// and the operator as seen with the column on the left.
func (p *planner) sargable(n Node) (col int, op core.CmpOp, v core.Value, ok bool) {
	b, isBin := n.(*BinOp)
	if !isBin {
		return 0, 0, nil, false
	}
	cmpOp, isCmp := cmpOpByName[b.Op]
	if !isCmp {
		return 0, 0, nil, false
	}
	cr, crOK := b.L.(*ColRef)
	lit, litOK := literalValue(b.R)
	if !crOK || !litOK {
		// Flipped orientation: literal ⊙ col.
		cr, crOK = b.R.(*ColRef)
		lit, litOK = literalValue(b.L)
		if !crOK || !litOK {
			return 0, 0, nil, false
		}
		cmpOp = flipCmp(cmpOp)
	}
	ti, ci, err := p.resolveCol(cr)
	if err != nil || ti != 0 {
		return 0, 0, nil, false
	}
	return ci, cmpOp, lit, true
}

// cmpOpByName maps every SQL comparison to its first-class core.Cmp
// operator — all six, with no asymmetric desugaring.
var cmpOpByName = map[string]core.CmpOp{
	"=": core.EQ, "!=": core.NE, "<": core.LT, "<=": core.LE, ">": core.GT, ">=": core.GE,
}

// flipCmp mirrors an operator across its operands (literal ⊙ col →
// col ⊙' literal).
func flipCmp(op core.CmpOp) core.CmpOp {
	switch op {
	case core.LT:
		return core.GT
	case core.LE:
		return core.GE
	case core.GT:
		return core.LT
	case core.GE:
		return core.LE
	default: // EQ and NE are symmetric
		return op
	}
}

// literalValue extracts the core.Value of a literal AST node.
func literalValue(n Node) (core.Value, bool) {
	switch n := n.(type) {
	case *NumLit:
		if n.IsFloat {
			v := n.Float
			if n.Neg {
				v = -v
			}
			return v, true
		}
		v := n.Int
		if n.Neg {
			v = -v
		}
		return v, true
	case *StrLit:
		return n.S, true
	case *BoolLit:
		return n.B, true
	case *NullLit:
		return nil, true
	default:
		return nil, false
	}
}

// conjuncts flattens a WHERE tree over AND.
func conjuncts(n Node) []Node {
	if n == nil {
		return nil
	}
	if b, ok := n.(*BinOp); ok && b.Op == "AND" {
		return append(conjuncts(b.L), conjuncts(b.R)...)
	}
	return []Node{n}
}

// tablesReferenced returns a bitmask of FROM tables referenced by n
// (bit 0 = first table).
func (p *planner) tablesReferenced(n Node) (int, error) {
	switch n := n.(type) {
	case *ColRef:
		ti, _, err := p.resolveCol(n)
		if err != nil {
			return 0, err
		}
		return 1 << ti, nil
	case *BinOp:
		l, err := p.tablesReferenced(n.L)
		if err != nil {
			return 0, err
		}
		r, err := p.tablesReferenced(n.R)
		if err != nil {
			return 0, err
		}
		return l | r, nil
	case *UnOp:
		return p.tablesReferenced(n.E)
	case *FuncCall:
		mask := 0
		for _, a := range n.Args {
			m, err := p.tablesReferenced(a)
			if err != nil {
				return 0, err
			}
			mask |= m
		}
		return mask, nil
	default:
		return 0, nil
	}
}

// asJoinPair recognizes t0.col = t1.col conjuncts.
func (p *planner) asJoinPair(n Node) (left, right int, ok bool) {
	b, isBin := n.(*BinOp)
	if !isBin || b.Op != "=" {
		return 0, 0, false
	}
	lc, lok := b.L.(*ColRef)
	rc, rok := b.R.(*ColRef)
	if !lok || !rok {
		return 0, 0, false
	}
	lt, li, lerr := p.resolveCol(lc)
	rt, ri, rerr := p.resolveCol(rc)
	if lerr != nil || rerr != nil || lt == rt {
		return 0, 0, false
	}
	if lt == 1 {
		li, ri = ri, li
	}
	return li, ri, true
}

// resolveCol finds (table index, column index) for a reference.
func (p *planner) resolveCol(c *ColRef) (int, int, error) {
	if c.Table != "" {
		for i, a := range p.aliases {
			if a == c.Table || p.tables[i].Name == c.Table {
				if k := p.tables[i].Col(c.Col); k >= 0 {
					return i, k, nil
				}
				return 0, 0, fmt.Errorf("sql: table %s has no column %s", c.Table, c.Col)
			}
		}
		return 0, 0, fmt.Errorf("sql: unknown table alias %q", c.Table)
	}
	found, ti, ci := 0, 0, 0
	for i, tb := range p.tables {
		if k := tb.Col(c.Col); k >= 0 {
			found++
			ti, ci = i, k
		}
	}
	switch found {
	case 1:
		return ti, ci, nil
	case 0:
		return 0, 0, fmt.Errorf("sql: unknown column %q", c.Col)
	default:
		return 0, 0, fmt.Errorf("sql: ambiguous column %q", c.Col)
	}
}

type colResolver func(*ColRef) (int, error)

// localResolver resolves references as indices into one table's row.
func (p *planner) localResolver(table int) colResolver {
	return func(c *ColRef) (int, error) {
		ti, ci, err := p.resolveCol(c)
		if err != nil {
			return 0, err
		}
		if ti != table {
			return 0, fmt.Errorf("sql: column %s does not belong to table %s", c.Col, p.tables[table].Name)
		}
		return ci, nil
	}
}

// concatResolver resolves references as indices into the concatenated
// (joined) row.
func (p *planner) concatResolver() colResolver {
	return func(c *ColRef) (int, error) {
		ti, ci, err := p.resolveCol(c)
		if err != nil {
			return 0, err
		}
		return p.offsets[ti] + ci, nil
	}
}

// toExpr lowers an AST node to a core.Expr with the given column
// resolver.
func (p *planner) toExpr(n Node, res colResolver) (core.Expr, error) {
	switch n := n.(type) {
	case *NumLit, *StrLit, *BoolLit, *NullLit:
		v, _ := literalValue(n)
		return &core.Const{V: v}, nil
	case *ColRef:
		idx, err := res(n)
		if err != nil {
			return nil, err
		}
		return &core.Col{Idx: idx}, nil
	case *BinOp:
		l, err := p.toExpr(n.L, res)
		if err != nil {
			return nil, err
		}
		r, err := p.toExpr(n.R, res)
		if err != nil {
			return nil, err
		}
		return binToCore(n.Op, l, r)
	case *UnOp:
		e, err := p.toExpr(n.E, res)
		if err != nil {
			return nil, err
		}
		return unToCore(n.Op, e)
	case *FuncCall:
		if _, isAgg := aggKinds[n.Name]; isAgg {
			return nil, fmt.Errorf("sql: aggregate %s not allowed here", n.Name)
		}
		args := make([]core.Expr, len(n.Args))
		for i, a := range n.Args {
			e, err := p.toExpr(a, res)
			if err != nil {
				return nil, err
			}
			args[i] = e
		}
		return &core.Call{Name: n.Name, Args: args}, nil
	default:
		return nil, fmt.Errorf("sql: unsupported expression")
	}
}

func binToCore(op string, l, r core.Expr) (core.Expr, error) {
	if cmpOp, ok := cmpOpByName[op]; ok {
		return &core.Cmp{Op: cmpOp, L: l, R: r}, nil
	}
	switch op {
	case "AND":
		return &core.And{L: l, R: r}, nil
	case "OR":
		return &core.Or{L: l, R: r}, nil
	case "+":
		return &core.Arith{Op: core.Add, L: l, R: r}, nil
	case "-":
		return &core.Arith{Op: core.Sub, L: l, R: r}, nil
	case "*":
		return &core.Arith{Op: core.Mul, L: l, R: r}, nil
	case "/":
		return &core.Arith{Op: core.Div, L: l, R: r}, nil
	case "%":
		return &core.Arith{Op: core.Mod, L: l, R: r}, nil
	default:
		return nil, fmt.Errorf("sql: unsupported operator %q", op)
	}
}

func unToCore(op string, e core.Expr) (core.Expr, error) {
	switch op {
	case "NOT":
		return &core.Not{E: e}, nil
	case "-":
		return &core.Arith{Op: core.Sub, L: &core.Const{V: int64(0)}, R: e}, nil
	default:
		return nil, fmt.Errorf("sql: unsupported unary operator %q", op)
	}
}

func andExpr(a, b core.Expr) core.Expr {
	if a == nil {
		return b
	}
	return &core.And{L: a, R: b}
}

func strategyByName(name string) (core.Strategy, error) {
	switch strings.ReplaceAll(strings.ReplaceAll(name, " ", ""), "-", "") {
	case "symmetrichash", "symhash":
		return core.SymmetricHash, nil
	case "fetchmatches", "fetch":
		return core.FetchMatches, nil
	case "symmetricsemijoin", "semijoin":
		return core.SymmetricSemiJoin, nil
	case "bloom", "bloomfilter", "bloomjoin":
		return core.BloomJoin, nil
	default:
		return 0, fmt.Errorf("sql: unknown join strategy %q", name)
	}
}
