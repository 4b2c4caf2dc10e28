// Package workload generates the paper's synthetic evaluation tables and
// query (§5.1):
//
//	SELECT R.pkey, S.pkey, R.pad
//	FROM   R, S
//	WHERE  R.num1 = S.pkey
//	  AND  R.num2 > constant1
//	  AND  S.num2 > constant2
//	  AND  f(R.num3, S.num3) > constant3
//
// R has ten times the tuples of S; attributes are uniform; the constants
// give each selection 50% selectivity; 90% of R tuples have exactly one
// matching S tuple; R.pad sizes every result tuple at 1 KB.
package workload

import (
	"fmt"
	"math/rand"

	"pier/internal/core"
	"pier/internal/sql"
)

// Column layout of R: pkey, num1 (join column), num2, num3. The pad is
// carried as Tuple.Pad.
const (
	RPkey = iota
	RNum1
	RNum2
	RNum3
)

// Column layout of S: pkey, num2, num3.
const (
	SPkey = iota
	SNum2
	SNum3
)

// Catalog describes R and S to the SQL planner, in the column layouts
// above, each keyed on pkey.
var Catalog = sql.Catalog{
	"R": {Name: "R", Cols: []string{"pkey", "num1", "num2", "num3"}, Key: "pkey"},
	"S": {Name: "S", Cols: []string{"pkey", "num2", "num3"}, Key: "pkey"},
}

// NumRange is the domain of num2/num3: uniform integers in [0, NumRange).
const NumRange = 100

// Config parameterizes table generation.
type Config struct {
	// STuples is |S|; |R| = 10 × |S| unless RTuples overrides it.
	STuples int
	// RTuples is |R|; zero means 10 × STuples (§5.1).
	RTuples int
	// MatchFraction is the fraction of R tuples with a join match
	// (default 0.9).
	MatchFraction float64
	// PadBytes is R's pad size; default sizes result tuples at ~1 KB.
	PadBytes int
	// Seed drives generation.
	Seed int64
}

// Norm fills defaults.
func (c Config) Norm() Config {
	if c.RTuples == 0 {
		c.RTuples = 10 * c.STuples
	}
	if c.MatchFraction == 0 {
		c.MatchFraction = 0.9
	}
	if c.PadBytes == 0 {
		// Result tuple = header + R.pkey + S.pkey + pad ≈ 1 KB (§5.1).
		c.PadBytes = 1024 - 60
	}
	return c
}

// Tables holds the generated relations.
type Tables struct {
	R, S []*core.Tuple
	Cfg  Config
}

// Generate builds R and S.
func Generate(cfg Config) *Tables {
	cfg = cfg.Norm()
	rng := rand.New(rand.NewSource(cfg.Seed))
	t := &Tables{Cfg: cfg}

	t.S = make([]*core.Tuple, cfg.STuples)
	for i := range t.S {
		t.S[i] = &core.Tuple{Rel: "S", Vals: []core.Value{
			int64(i),
			int64(rng.Intn(NumRange)),
			int64(rng.Intn(NumRange)),
		}}
	}
	t.R = make([]*core.Tuple, cfg.RTuples)
	for i := range t.R {
		var num1 int64
		if rng.Float64() < cfg.MatchFraction && cfg.STuples > 0 {
			num1 = int64(rng.Intn(cfg.STuples)) // exactly one matching S.pkey
		} else {
			num1 = int64(cfg.STuples + i) // no match
		}
		t.R[i] = &core.Tuple{Rel: "R", Vals: []core.Value{
			int64(i),
			num1,
			int64(rng.Intn(NumRange)),
			int64(rng.Intn(NumRange)),
		}, Pad: cfg.PadBytes}
	}
	return t
}

// F is the workload's two-table function f(x, y); it must be evaluated
// after the equi-join (§5.1).
func F(x, y int64) int64 { return (x + y) % NumRange }

func init() {
	core.RegisterFunc("f", func(args []core.Value) core.Value {
		if len(args) != 2 {
			return nil
		}
		x, _ := args[0].(int64)
		y, _ := args[1].(int64)
		return F(x, y)
	})
}

// Constants chooses predicate constants: num2 > c has selectivity sel.
// With num2 uniform over [0, NumRange), c = NumRange(1-sel) - 1.
func Constants(selR, selS, selF float64) (c1, c2, c3 int64) {
	conv := func(sel float64) int64 {
		c := int64(NumRange*(1-sel)) - 1
		if c < -1 {
			c = -1
		}
		if c > NumRange-1 {
			c = NumRange - 1
		}
		return c
	}
	return conv(selR), conv(selS), conv(selF)
}

// JoinSQL is the §5.1 query (the package comment's SELECT; the pad
// rides on R's tuple body) under a strategy, with the given predicate
// constants.
func JoinSQL(strategy core.Strategy, c1, c2, c3 int64) string {
	return fmt.Sprintf(`SELECT R.pkey, S.pkey FROM R, S
		WHERE R.num1 = S.pkey AND R.num2 > %d AND S.num2 > %d AND f(R.num3, S.num3) > %d
		USING STRATEGY '%v'`, c1, c2, c3, strategy)
}

// JoinPlan plans JoinSQL against Catalog.
func JoinPlan(strategy core.Strategy, c1, c2, c3 int64) *core.Plan {
	return sql.MustPlan(JoinSQL(strategy, c1, c2, c3), Catalog)
}

// ReferenceJoin computes the exact expected result set with a local
// nested-loop join; distributed runs are verified against it.
func (t *Tables) ReferenceJoin(c1, c2, c3 int64) [][2]int64 {
	var out [][2]int64
	sByPkey := make(map[int64]*core.Tuple, len(t.S))
	for _, s := range t.S {
		sByPkey[s.Vals[SPkey].(int64)] = s
	}
	for _, r := range t.R {
		if r.Vals[RNum2].(int64) <= c1 {
			continue
		}
		s, ok := sByPkey[r.Vals[RNum1].(int64)]
		if !ok {
			continue
		}
		if s.Vals[SNum2].(int64) <= c2 {
			continue
		}
		if F(r.Vals[RNum3].(int64), s.Vals[SNum3].(int64)) <= c3 {
			continue
		}
		out = append(out, [2]int64{r.Vals[RPkey].(int64), s.Vals[SPkey].(int64)})
	}
	return out
}
