package core

import (
	"fmt"

	"pier/internal/wire"
)

// Expr is a scalar expression evaluated against a row of values. Plans
// carry expressions across the network, so every implementation is a
// concrete, wire-registered type with a wire size.
type Expr interface {
	Eval(row []Value) Value
	WireSize() int
	String() string
}

// Col references a column by index.
type Col struct{ Idx int }

// Eval implements Expr. Plans arrive over the network and Validate
// cannot know row widths, so the index is untrusted: out-of-range
// references evaluate to nil instead of panicking the event loop.
func (c *Col) Eval(row []Value) Value {
	if c.Idx < 0 || c.Idx >= len(row) {
		return nil
	}
	return row[c.Idx]
}

// WireSize implements Expr.
func (c *Col) WireSize() int { return wire.Size(c) }

func (c *Col) String() string { return fmt.Sprintf("$%d", c.Idx) }

// Const is a literal value.
type Const struct{ V Value }

// Eval implements Expr.
func (c *Const) Eval([]Value) Value { return c.V }

// WireSize implements Expr.
func (c *Const) WireSize() int { return wire.Size(c) }

func (c *Const) String() string { return ValueString(c.V) }

// CmpOp is a comparison operator.
type CmpOp int

// Comparison operators.
const (
	EQ CmpOp = iota
	NE
	LT
	LE
	GT
	GE
)

func (op CmpOp) String() string {
	return [...]string{"=", "!=", "<", "<=", ">", ">="}[op]
}

// Cmp compares two sub-expressions with numeric coercion.
type Cmp struct {
	Op   CmpOp
	L, R Expr
}

// Eval implements Expr.
func (c *Cmp) Eval(row []Value) Value {
	d := CompareValues(c.L.Eval(row), c.R.Eval(row))
	switch c.Op {
	case EQ:
		return d == 0
	case NE:
		return d != 0
	case LT:
		return d < 0
	case LE:
		return d <= 0
	case GT:
		return d > 0
	default:
		return d >= 0
	}
}

// WireSize implements Expr.
func (c *Cmp) WireSize() int { return wire.Size(c) }

func (c *Cmp) String() string { return fmt.Sprintf("(%s %s %s)", c.L, c.Op, c.R) }

// And is logical conjunction.
type And struct{ L, R Expr }

// Eval implements Expr.
func (a *And) Eval(row []Value) Value { return Truthy(a.L.Eval(row)) && Truthy(a.R.Eval(row)) }

// WireSize implements Expr.
func (a *And) WireSize() int { return wire.Size(a) }

func (a *And) String() string { return fmt.Sprintf("(%s AND %s)", a.L, a.R) }

// Or is logical disjunction.
type Or struct{ L, R Expr }

// Eval implements Expr.
func (o *Or) Eval(row []Value) Value { return Truthy(o.L.Eval(row)) || Truthy(o.R.Eval(row)) }

// WireSize implements Expr.
func (o *Or) WireSize() int { return wire.Size(o) }

func (o *Or) String() string { return fmt.Sprintf("(%s OR %s)", o.L, o.R) }

// Not is logical negation.
type Not struct{ E Expr }

// Eval implements Expr.
func (n *Not) Eval(row []Value) Value { return !Truthy(n.E.Eval(row)) }

// WireSize implements Expr.
func (n *Not) WireSize() int { return wire.Size(n) }

func (n *Not) String() string { return fmt.Sprintf("(NOT %s)", n.E) }

// ArithOp is an arithmetic operator.
type ArithOp int

// Arithmetic operators.
const (
	Add ArithOp = iota
	Sub
	Mul
	Div
	Mod
)

func (op ArithOp) String() string { return [...]string{"+", "-", "*", "/", "%"}[op] }

// Arith applies an arithmetic operator with int/float coercion.
type Arith struct {
	Op   ArithOp
	L, R Expr
}

// Eval implements Expr.
func (a *Arith) Eval(row []Value) Value {
	l, r := a.L.Eval(row), a.R.Eval(row)
	li, lok := l.(int64)
	ri, rok := r.(int64)
	if lok && rok {
		switch a.Op {
		case Add:
			return li + ri
		case Sub:
			return li - ri
		case Mul:
			return li * ri
		case Div:
			if ri == 0 {
				return nil
			}
			return li / ri
		default:
			if ri == 0 {
				return nil
			}
			return li % ri
		}
	}
	lf, _ := toFloat(l)
	rf, _ := toFloat(r)
	switch a.Op {
	case Add:
		return lf + rf
	case Sub:
		return lf - rf
	case Mul:
		return lf * rf
	case Div:
		if rf == 0 {
			return nil
		}
		return lf / rf
	default:
		if rf == 0 {
			return nil
		}
		return float64(int64(lf) % int64(rf))
	}
}

// WireSize implements Expr.
func (a *Arith) WireSize() int { return wire.Size(a) }

func (a *Arith) String() string { return fmt.Sprintf("(%s %s %s)", a.L, a.Op, a.R) }

// Call invokes a registered scalar function by name — the mechanism
// behind the workload's f(R.num3, S.num3) predicate (§5.1), which must
// be evaluated after the equi-join because it references both tables.
type Call struct {
	Name string
	Args []Expr
}

// Eval implements Expr. Unknown functions evaluate to nil.
func (c *Call) Eval(row []Value) Value {
	fn, ok := funcs[c.Name]
	if !ok {
		return nil
	}
	args := make([]Value, len(c.Args))
	for i, a := range c.Args {
		args[i] = a.Eval(row)
	}
	return fn(args)
}

// WireSize implements Expr.
func (c *Call) WireSize() int { return wire.Size(c) }

func (c *Call) String() string {
	s := c.Name + "("
	for i, a := range c.Args {
		if i > 0 {
			s += ", "
		}
		s += a.String()
	}
	return s + ")"
}

// funcs is the registry of scalar functions available to Call. All nodes
// of a deployment must register the same functions (they are part of the
// "grassroots software" shipped to every participant, §2.2).
var funcs = map[string]func([]Value) Value{}

// RegisterFunc installs a scalar function usable in query plans.
func RegisterFunc(name string, fn func(args []Value) Value) { funcs[name] = fn }

// Truthy converts a value to a boolean: false for nil, false, zero
// numbers, and empty strings.
func Truthy(v Value) bool {
	switch v := v.(type) {
	case nil:
		return false
	case bool:
		return v
	case int64:
		return v != 0
	case float64:
		return v != 0
	case string:
		return v != ""
	default:
		return true
	}
}
