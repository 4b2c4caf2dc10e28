// Package core implements the PIER query processor (§3.3, §4): a
// push-based "boxes-and-arrows" dataflow engine with selection,
// projection, distributed equi-joins (symmetric hash, Fetch Matches,
// symmetric semi-join rewrite, Bloom-filter rewrite), and DHT-based
// grouping/aggregation, all executing over the provider layer.
package core

import (
	"fmt"
	"strconv"
	"strings"

	"pier/internal/wire"
)

// Value is a column value: int64, float64, string, bool, or nil.
type Value = any

// Tuple is a row flowing through the dataflow. Vals are the column
// values; Pad models trailing payload bytes that are carried on the wire
// but never evaluated (the workload's R.pad "is used to ensure that all
// result tuples are 1 KB in size", §5.1).
type Tuple struct {
	Rel  string // source relation tag
	Vals []Value
	Pad  int
}

// WireSize implements env.Message.
func (t *Tuple) WireSize() int { return wire.Size(t) }

// Clone returns a deep-enough copy (values are immutable scalars).
func (t *Tuple) Clone() *Tuple {
	return &Tuple{Rel: t.Rel, Vals: append([]Value(nil), t.Vals...), Pad: t.Pad}
}

// Concat returns a new tuple with t's columns followed by u's, adding
// the pads; the tag marks it as a join result.
func Concat(t, u *Tuple) *Tuple {
	vals := make([]Value, 0, len(t.Vals)+len(u.Vals))
	vals = append(vals, t.Vals...)
	vals = append(vals, u.Vals...)
	return &Tuple{Rel: t.Rel + "+" + u.Rel, Vals: vals, Pad: t.Pad + u.Pad}
}

// Project returns a tuple with only the given columns (nil keeps all).
// The pad payload rides along: projecting metadata columns does not shed
// the tuple's body, which is what makes the symmetric hash join's rehash
// expensive (Figure 4).
func (t *Tuple) Project(cols []int) *Tuple {
	if cols == nil {
		return t
	}
	vals := make([]Value, len(cols))
	for i, c := range cols {
		vals[i] = t.At(c)
	}
	return &Tuple{Rel: t.Rel, Vals: vals, Pad: t.Pad}
}

// At returns the i-th value, or nil when i is out of range. Column
// indexes reach this code from network-supplied plans, so they are
// never trusted enough to index directly on the event loop.
func (t *Tuple) At(i int) Value {
	if i < 0 || i >= len(t.Vals) {
		return nil
	}
	return t.Vals[i]
}

// String renders the tuple for logs and examples.
func (t *Tuple) String() string {
	parts := make([]string, len(t.Vals))
	for i, v := range t.Vals {
		parts[i] = ValueString(v)
	}
	return "(" + strings.Join(parts, ", ") + ")"
}

// ValueString renders a value canonically; resourceIDs for rehashed
// tuples are built from these (§4.1: "the values for the join attributes
// are concatenated to form the resourceID").
func ValueString(v Value) string {
	switch v := v.(type) {
	case nil:
		return "<nil>"
	case int64:
		return strconv.FormatInt(v, 10)
	case float64:
		return strconv.FormatFloat(v, 'g', -1, 64)
	case string:
		return v
	case bool:
		return strconv.FormatBool(v)
	default:
		return fmt.Sprint(v)
	}
}

// JoinKeyString concatenates the values of cols into a resourceID.
func JoinKeyString(t *Tuple, cols []int) string {
	if len(cols) == 1 {
		return ValueString(t.At(cols[0]))
	}
	parts := make([]string, len(cols))
	for i, c := range cols {
		parts[i] = ValueString(t.At(c))
	}
	return strings.Join(parts, "\x1f")
}

// ValuesEqual compares two values with numeric coercion between int64
// and float64.
func ValuesEqual(a, b Value) bool { return CompareValues(a, b) == 0 }

// CompareValues orders values: nil < bool < number < string, numbers
// coerced. It returns -1, 0, or 1.
func CompareValues(a, b Value) int {
	ra, rb := rank(a), rank(b)
	if ra != rb {
		return sign(ra - rb)
	}
	switch ra {
	case 0:
		return 0
	case 1:
		ab, bb := a.(bool), b.(bool)
		switch {
		case ab == bb:
			return 0
		case !ab:
			return -1
		default:
			return 1
		}
	case 2:
		af, aInt := toFloat(a)
		bf, bInt := toFloat(b)
		if aInt && bInt {
			// Compare directly: ai-bi overflows for operands straddling
			// ±2^63 (e.g. MinInt64 vs 1) and would invert the order.
			ai, bi := a.(int64), b.(int64)
			switch {
			case ai < bi:
				return -1
			case ai > bi:
				return 1
			default:
				return 0
			}
		}
		switch {
		case af < bf:
			return -1
		case af > bf:
			return 1
		default:
			return 0
		}
	default:
		return strings.Compare(a.(string), b.(string))
	}
}

func rank(v Value) int {
	switch v.(type) {
	case nil:
		return 0
	case bool:
		return 1
	case int64, float64:
		return 2
	default:
		return 3
	}
}

func toFloat(v Value) (f float64, isInt bool) {
	switch v := v.(type) {
	case int64:
		return float64(v), true
	case float64:
		return v, false
	default:
		return 0, false
	}
}

func sign(x int) int {
	switch {
	case x < 0:
		return -1
	case x > 0:
		return 1
	default:
		return 0
	}
}
