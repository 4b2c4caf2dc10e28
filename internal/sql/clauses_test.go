package sql

import (
	"testing"
	"time"
)

// TestPlanEveryWindowsWait covers the continuous-query and gather-wait
// clauses: EVERY makes the plan continuous, WINDOWS bounds it, and
// WAIT lands on the aggregate's or the Bloom join's gather.
func TestPlanEveryWindowsWait(t *testing.T) {
	p, err := Plan(`SELECT num3, count(*), sum(num2) FROM S GROUP BY num3 EVERY '10s' WINDOWS 3 WAIT '4s'`, testCat)
	if err != nil {
		t.Fatal(err)
	}
	if !p.Continuous || p.Every != 10*time.Second || p.Windows != 3 || p.AggWait != 4*time.Second {
		t.Fatalf("continuous=%v every=%v windows=%d aggwait=%v", p.Continuous, p.Every, p.Windows, p.AggWait)
	}
	if p.BloomWait != 5*time.Second {
		t.Fatalf("WAIT on an aggregate moved BloomWait to %v", p.BloomWait)
	}

	p, err = Plan(`SELECT count(*) FROM S EVERY '1m30s'`, testCat)
	if err != nil {
		t.Fatal(err)
	}
	if !p.Continuous || p.Every != 90*time.Second || p.Windows != 0 || p.AggWait != 10*time.Second {
		t.Fatalf("continuous=%v every=%v windows=%d aggwait=%v", p.Continuous, p.Every, p.Windows, p.AggWait)
	}

	p, err = Plan(`SELECT R.pkey FROM R, S WHERE R.num1 = S.pkey USING STRATEGY bloom WAIT '2s'`, testCat)
	if err != nil {
		t.Fatal(err)
	}
	if p.BloomWait != 2*time.Second || p.AggWait != 10*time.Second || p.Continuous {
		t.Fatalf("bloomwait=%v aggwait=%v continuous=%v", p.BloomWait, p.AggWait, p.Continuous)
	}

	p, err = Plan(`SELECT R.pkey, count(*) FROM R, S WHERE R.num1 = S.pkey GROUP BY R.pkey USING STRATEGY bloom WAIT '7s'`, testCat)
	if err != nil {
		t.Fatal(err)
	}
	if p.AggWait != 7*time.Second || p.BloomWait != 5*time.Second {
		t.Fatalf("aggregate over a join: aggwait=%v bloomwait=%v", p.AggWait, p.BloomWait)
	}

	p, err = Plan(`SELECT pkey FROM S`, testCat)
	if err != nil {
		t.Fatal(err)
	}
	if p.Continuous || p.AggWait != 10*time.Second || p.BloomWait != 5*time.Second {
		t.Fatalf("no clause: continuous=%v aggwait=%v bloomwait=%v", p.Continuous, p.AggWait, p.BloomWait)
	}
}

// TestAggregateIdentityOutput: a select list that is the group columns
// then the aggregates, in order, plans no Output (the group row is the
// answer); any other list keeps its Output.
func TestAggregateIdentityOutput(t *testing.T) {
	for _, tc := range []struct {
		src    string
		output bool
	}{
		{`SELECT num3, count(*), sum(num2) FROM S GROUP BY num3`, false},
		{`SELECT count(*) FROM S`, false},
		{`SELECT num3, num2, count(*) FROM S GROUP BY num3, num2`, false},
		{`SELECT count(*), num3 FROM S GROUP BY num3`, true},
		{`SELECT num3 FROM S GROUP BY num3 HAVING count(*) > 1`, true},
		{`SELECT num3, count(*) FROM S GROUP BY num3 HAVING sum(num2) > 1`, true},
		{`SELECT num3, count(*) + 1 FROM S GROUP BY num3`, true},
		{`SELECT num3, count(*), count(*) FROM S GROUP BY num3`, true},
	} {
		p, err := Plan(tc.src, testCat)
		if err != nil {
			t.Fatalf("%s: %v", tc.src, err)
		}
		if got := p.Output != nil; got != tc.output {
			t.Errorf("%s: Output %v, want present=%v", tc.src, p.Output, tc.output)
		}
	}
}
