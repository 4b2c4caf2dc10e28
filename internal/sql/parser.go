package sql

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
	"time"
)

// Parse parses one SELECT statement.
func Parse(src string) (*Stmt, error) {
	st, err := ParseStatement(src)
	if err != nil {
		return nil, err
	}
	sel, ok := st.(*Stmt)
	if !ok {
		return nil, fmt.Errorf("sql: expected a SELECT statement")
	}
	return sel, nil
}

// ParseStatement parses one statement of any supported kind, returning
// *Stmt for SELECT, *CreateIndexStmt for CREATE INDEX, or *ExplainStmt
// for EXPLAIN TRACE <select>.
func ParseStatement(src string) (any, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	var st any
	switch t := p.peek(); {
	case t.kind == tokKeyword && t.text == "CREATE":
		st, err = p.parseCreateIndex()
	case t.kind == tokKeyword && t.text == "EXPLAIN":
		st, err = p.parseExplain()
	default:
		st, err = p.parseSelect()
	}
	if err != nil {
		return nil, err
	}
	if !p.atEOF() {
		return nil, p.errf("trailing input starting at %q", p.peek().text)
	}
	return st, nil
}

// parseExplain parses EXPLAIN TRACE <select>. Plain EXPLAIN (without
// TRACE) is rejected: there is no static plan printer, only the traced
// execution surface.
func (p *parser) parseExplain() (*ExplainStmt, error) {
	if err := p.expectKeyword("EXPLAIN"); err != nil {
		return nil, err
	}
	if err := p.expectKeyword("TRACE"); err != nil {
		return nil, err
	}
	sel, err := p.parseSelect()
	if err != nil {
		return nil, err
	}
	return &ExplainStmt{Select: sel}, nil
}

// parseCreateIndex parses CREATE INDEX name ON table (col).
func (p *parser) parseCreateIndex() (*CreateIndexStmt, error) {
	if err := p.expectKeyword("CREATE"); err != nil {
		return nil, err
	}
	if err := p.expectKeyword("INDEX"); err != nil {
		return nil, err
	}
	st := &CreateIndexStmt{}
	var err error
	if st.Name, err = p.expectIdent(); err != nil {
		return nil, err
	}
	if err := p.expectKeyword("ON"); err != nil {
		return nil, err
	}
	if st.Table, err = p.expectIdent(); err != nil {
		return nil, err
	}
	if !p.acceptSymbol("(") {
		return nil, p.errf("expected ( after table name")
	}
	if st.Col, err = p.expectIdent(); err != nil {
		return nil, err
	}
	if p.acceptSymbol(",") {
		return nil, p.errf("PHT indexes cover a single column")
	}
	if !p.acceptSymbol(")") {
		return nil, p.errf("expected ) after column name")
	}
	return st, nil
}

type parser struct {
	toks []token
	i    int
}

func (p *parser) peek() token { return p.toks[p.i] }
func (p *parser) next() token { t := p.toks[p.i]; p.i++; return t }
func (p *parser) atEOF() bool { return p.peek().kind == tokEOF }

func (p *parser) errf(format string, args ...any) error {
	return fmt.Errorf("sql: "+format, args...)
}

func (p *parser) acceptKeyword(kw string) bool {
	if t := p.peek(); t.kind == tokKeyword && t.text == kw {
		p.i++
		return true
	}
	return false
}

func (p *parser) expectKeyword(kw string) error {
	if !p.acceptKeyword(kw) {
		return p.errf("expected %s, found %q", kw, p.peek().text)
	}
	return nil
}

func (p *parser) acceptSymbol(s string) bool {
	if t := p.peek(); t.kind == tokSymbol && t.text == s {
		p.i++
		return true
	}
	return false
}

func (p *parser) expectIdent() (string, error) {
	if t := p.peek(); t.kind == tokIdent {
		p.i++
		return t.text, nil
	}
	return "", p.errf("expected identifier, found %q", p.peek().text)
}

func (p *parser) parseSelect() (*Stmt, error) {
	if err := p.expectKeyword("SELECT"); err != nil {
		return nil, err
	}
	st := &Stmt{}
	for {
		item, err := p.parseSelectItem()
		if err != nil {
			return nil, err
		}
		st.Select = append(st.Select, item)
		if !p.acceptSymbol(",") {
			break
		}
	}
	if err := p.expectKeyword("FROM"); err != nil {
		return nil, err
	}
	for {
		name, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		ti := TableItem{Name: name, Alias: name}
		if p.acceptKeyword("AS") {
			if ti.Alias, err = p.expectIdent(); err != nil {
				return nil, err
			}
		} else if p.peek().kind == tokIdent {
			ti.Alias = p.next().text
		}
		st.From = append(st.From, ti)
		if !p.acceptSymbol(",") {
			break
		}
	}
	if len(st.From) > 2 {
		return nil, p.errf("at most two tables are supported (the paper's joins are binary)")
	}
	if p.acceptKeyword("WHERE") {
		e, err := p.parseOr()
		if err != nil {
			return nil, err
		}
		st.Where = e
	}
	if p.acceptKeyword("GROUP") {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parsePrimary()
			if err != nil {
				return nil, err
			}
			cr, ok := e.(*ColRef)
			if !ok {
				return nil, p.errf("GROUP BY supports column references only")
			}
			st.GroupBy = append(st.GroupBy, cr)
			if !p.acceptSymbol(",") {
				break
			}
		}
	}
	if p.acceptKeyword("HAVING") {
		e, err := p.parseOr()
		if err != nil {
			return nil, err
		}
		st.Having = e
	}
	if p.acceptKeyword("USING") {
		if err := p.expectKeyword("STRATEGY"); err != nil {
			return nil, err
		}
		t := p.next()
		if t.kind != tokString && t.kind != tokIdent {
			return nil, p.errf("USING STRATEGY expects a strategy name")
		}
		st.Strategy = strings.ToLower(t.text)
	}
	if p.acceptKeyword("EVERY") {
		var err error
		if st.Every, err = p.expectDuration("EVERY"); err != nil {
			return nil, err
		}
		if p.acceptKeyword("WINDOWS") {
			t := p.next()
			n, err := strconv.Atoi(t.text)
			if t.kind != tokNumber || err != nil || n <= 0 {
				return nil, p.errf("WINDOWS expects a positive integer, found %q", t.text)
			}
			st.Windows = n
		}
	}
	if p.acceptKeyword("WAIT") {
		var err error
		if st.Wait, err = p.expectDuration("WAIT"); err != nil {
			return nil, err
		}
	}
	return st, nil
}

// expectDuration reads the quoted Go duration that follows clause, as
// in EVERY '10s'; it must be positive.
func (p *parser) expectDuration(clause string) (time.Duration, error) {
	t := p.next()
	d, err := time.ParseDuration(t.text)
	if t.kind != tokString || err != nil || d <= 0 {
		return 0, p.errf("%s expects a positive quoted duration like '10s', found %q", clause, t.text)
	}
	return d, nil
}

func (p *parser) parseSelectItem() (SelectItem, error) {
	if p.acceptSymbol("*") {
		return SelectItem{Star: true}, nil
	}
	e, err := p.parseOr()
	if err != nil {
		return SelectItem{}, err
	}
	item := SelectItem{E: e}
	if p.acceptKeyword("AS") {
		if item.Alias, err = p.expectIdent(); err != nil {
			return SelectItem{}, err
		}
	}
	return item, nil
}

// Expression grammar: OR > AND > NOT > comparison > additive >
// multiplicative > unary > primary.

func (p *parser) parseOr() (Node, error)  { return p.parseChain(p.parseAnd, "OR") }
func (p *parser) parseAnd() (Node, error) { return p.parseChain(p.parseNot, "AND") }
func (p *parser) parseAdd() (Node, error) { return p.parseChain(p.parseMul, "+", "-") }
func (p *parser) parseMul() (Node, error) { return p.parseChain(p.parseUnary, "*", "/", "%") }

// parseChain parses a left-associative chain of next joined by any of
// ops (keywords or symbols).
func (p *parser) parseChain(next func() (Node, error), ops ...string) (Node, error) {
	l, err := next()
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		if (t.kind != tokKeyword && t.kind != tokSymbol) || !slices.Contains(ops, t.text) {
			return l, nil
		}
		p.i++
		r, err := next()
		if err != nil {
			return nil, err
		}
		l = &BinOp{Op: t.text, L: l, R: r}
	}
}

func (p *parser) parseNot() (Node, error) {
	if p.acceptKeyword("NOT") {
		e, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return &UnOp{Op: "NOT", E: e}, nil
	}
	return p.parseCmp()
}

var cmpOps = map[string]bool{"=": true, "!=": true, "<>": true, "<": true, "<=": true, ">": true, ">=": true}

func (p *parser) parseCmp() (Node, error) {
	l, err := p.parseAdd()
	if err != nil {
		return nil, err
	}
	if t := p.peek(); t.kind == tokSymbol && cmpOps[t.text] {
		p.i++
		r, err := p.parseAdd()
		if err != nil {
			return nil, err
		}
		op := t.text
		if op == "<>" {
			op = "!="
		}
		return &BinOp{Op: op, L: l, R: r}, nil
	}
	// x [NOT] IN (e1, e2, ...) desugars to a chain of equalities; the
	// planner then treats it like any other disjunction.
	negated := false
	if p.peek().kind == tokKeyword && p.peek().text == "NOT" && p.i+1 < len(p.toks) &&
		p.toks[p.i+1].kind == tokKeyword && p.toks[p.i+1].text == "IN" {
		p.i++
		negated = true
	}
	if p.acceptKeyword("IN") {
		e, err := p.parseInList(l)
		if err != nil {
			return nil, err
		}
		if negated {
			e = &UnOp{Op: "NOT", E: e}
		}
		return e, nil
	}
	return l, nil
}

// parseInList parses the parenthesized list of an IN predicate and
// lowers it to OR-ed equalities. An empty list is a hard error — SQL
// does not allow it, and silently treating it as FALSE hides bugs in
// query generators.
func (p *parser) parseInList(l Node) (Node, error) {
	if !p.acceptSymbol("(") {
		return nil, p.errf("expected ( after IN")
	}
	if p.acceptSymbol(")") {
		return nil, p.errf("IN list must not be empty")
	}
	var out Node
	for {
		item, err := p.parseAdd()
		if err != nil {
			return nil, err
		}
		eq := &BinOp{Op: "=", L: l, R: item}
		if out == nil {
			out = eq
		} else {
			out = &BinOp{Op: "OR", L: out, R: eq}
		}
		if p.acceptSymbol(")") {
			return out, nil
		}
		if !p.acceptSymbol(",") {
			return nil, p.errf("expected , or ) in IN list")
		}
	}
}

func (p *parser) parseUnary() (Node, error) {
	if p.acceptSymbol("-") {
		e, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		if n, ok := e.(*NumLit); ok {
			n.Neg = !n.Neg
			return n, nil
		}
		return &UnOp{Op: "-", E: e}, nil
	}
	return p.parsePrimary()
}

func (p *parser) parsePrimary() (Node, error) {
	t := p.peek()
	switch t.kind {
	case tokNumber:
		p.i++
		if strings.Contains(t.text, ".") {
			f, err := strconv.ParseFloat(t.text, 64)
			if err != nil {
				return nil, p.errf("bad number %q", t.text)
			}
			return &NumLit{Float: f, IsFloat: true}, nil
		}
		n, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return nil, p.errf("bad number %q", t.text)
		}
		return &NumLit{Int: n}, nil
	case tokString:
		p.i++
		return &StrLit{S: t.text}, nil
	case tokKeyword:
		switch t.text {
		case "TRUE":
			p.i++
			return &BoolLit{B: true}, nil
		case "FALSE":
			p.i++
			return &BoolLit{B: false}, nil
		case "NULL":
			p.i++
			return &NullLit{}, nil
		}
		return nil, p.errf("unexpected keyword %q in expression", t.text)
	case tokSymbol:
		if t.text == "(" {
			p.i++
			e, err := p.parseOr()
			if err != nil {
				return nil, err
			}
			if !p.acceptSymbol(")") {
				return nil, p.errf("missing closing parenthesis")
			}
			return e, nil
		}
		return nil, p.errf("unexpected symbol %q in expression", t.text)
	case tokIdent:
		p.i++
		name := t.text
		// Function call?
		if p.acceptSymbol("(") {
			fc := &FuncCall{Name: strings.ToLower(name)}
			if p.acceptSymbol("*") {
				fc.Star = true
				if !p.acceptSymbol(")") {
					return nil, p.errf("expected ) after *")
				}
				return fc, nil
			}
			if p.acceptSymbol(")") {
				return fc, nil
			}
			for {
				arg, err := p.parseOr()
				if err != nil {
					return nil, err
				}
				fc.Args = append(fc.Args, arg)
				if p.acceptSymbol(")") {
					return fc, nil
				}
				if !p.acceptSymbol(",") {
					return nil, p.errf("expected , or ) in argument list")
				}
			}
		}
		// Qualified column reference?
		if p.acceptSymbol(".") {
			col, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			return &ColRef{Table: name, Col: col}, nil
		}
		return &ColRef{Col: name}, nil
	default:
		return nil, p.errf("unexpected end of input")
	}
}
