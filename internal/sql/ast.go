package sql

import "time"

// AST node types for the supported SELECT subset.

// Node is any expression node.
type Node interface{ nodeString() string }

// NumLit is an integer or float literal.
type NumLit struct {
	Int     int64
	Float   float64
	IsFloat bool
	Neg     bool
}

func (n *NumLit) nodeString() string { return "num" }

// StrLit is a string literal.
type StrLit struct{ S string }

func (n *StrLit) nodeString() string { return "str" }

// BoolLit is TRUE or FALSE.
type BoolLit struct{ B bool }

func (n *BoolLit) nodeString() string { return "bool" }

// NullLit is NULL.
type NullLit struct{}

func (n *NullLit) nodeString() string { return "null" }

// ColRef is a possibly-qualified column reference (table.col or col).
type ColRef struct{ Table, Col string }

func (n *ColRef) nodeString() string { return "col" }

// BinOp is a binary operator: comparison (= != < <= > >=), arithmetic
// (+ - * / %), or logical (AND OR).
type BinOp struct {
	Op   string
	L, R Node
}

func (n *BinOp) nodeString() string { return "binop" }

// UnOp is NOT or unary minus.
type UnOp struct {
	Op string
	E  Node
}

func (n *UnOp) nodeString() string { return "unop" }

// FuncCall is f(args) or an aggregate; Star marks count(*).
type FuncCall struct {
	Name string
	Args []Node
	Star bool
}

func (n *FuncCall) nodeString() string { return "call" }

// SelectItem is one projection in the SELECT list.
type SelectItem struct {
	Star  bool
	E     Node
	Alias string
}

// TableItem is one FROM entry.
type TableItem struct {
	Name  string
	Alias string
}

// Stmt is a parsed single-block SELECT.
type Stmt struct {
	Select   []SelectItem
	From     []TableItem
	Where    Node
	GroupBy  []*ColRef
	Having   Node
	Strategy string // optional USING STRATEGY '<name>' extension
	// Every (EVERY '<dur>') makes the query continuous, in tumbling
	// windows of that length; Windows (WINDOWS <n>) stops it after n
	// windows, and 0 runs it until its TTL.
	Every   time.Duration
	Windows int
	// Wait (WAIT '<dur>') is the gather wait: how long group collectors
	// gather partials (an aggregate) or, in a join without aggregates,
	// Bloom collectors gather filters.
	Wait time.Duration
}

// CreateIndexStmt is a parsed CREATE INDEX name ON table (col)
// statement — the DDL front end of the Prefix Hash Tree range index.
type CreateIndexStmt struct {
	Name  string
	Table string
	Col   string
}

// ExplainStmt is a parsed EXPLAIN TRACE <select> statement: run the
// inner SELECT with distributed tracing forced on and answer with the
// assembled trace tree instead of (or alongside) the result rows.
type ExplainStmt struct {
	// Select is the traced inner statement.
	Select *Stmt
}
