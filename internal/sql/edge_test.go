package sql

import (
	"strings"
	"testing"

	"pier/internal/core"
)

// TestPlannerEdgeCases holds the front end to its error contract: every
// malformed statement must produce a graceful error mentioning the
// problem — never a panic, never a silently wrong plan.
func TestPlannerEdgeCases(t *testing.T) {
	cases := []struct {
		name    string
		src     string
		wantErr string // substring of the expected error
	}{
		{"empty IN list", `SELECT pkey FROM S WHERE num2 IN ()`, "IN list must not be empty"},
		{"empty NOT IN list", `SELECT pkey FROM S WHERE num2 NOT IN ()`, "IN list must not be empty"},
		{"IN missing paren", `SELECT pkey FROM S WHERE num2 IN 1, 2`, "expected ( after IN"},
		{"IN unterminated list", `SELECT pkey FROM S WHERE num2 IN (1, 2`, "expected , or )"},
		{"NOT without IN", `SELECT pkey FROM S WHERE num2 NOT 3`, "trailing input"},
		{"duplicate USING STRATEGY", `SELECT R.pkey FROM R, S WHERE R.num1 = S.pkey USING STRATEGY bloom USING STRATEGY fetch`, "trailing input"},
		{"unknown strategy", `SELECT R.pkey FROM R, S WHERE R.num1 = S.pkey USING STRATEGY quantum`, "unknown join strategy"},
		{"USING without STRATEGY", `SELECT pkey FROM S USING bloom`, "expected STRATEGY"},
		{"aggregate over missing column", `SELECT sum(nosuch) FROM S`, "unknown column"},
		{"aggregate over wrong table's column", `SELECT sum(R.num9) FROM R`, "no column"},
		{"group by missing column", `SELECT count(*) FROM S GROUP BY nosuch`, "unknown column"},
		{"having on ungrouped column", `SELECT count(*) FROM S HAVING num2 > 1`, "neither grouped nor aggregated"},
		{"ungrouped select column", `SELECT num2, count(*) FROM S GROUP BY num3`, "neither grouped nor aggregated"},
		{"aggregate of expression", `SELECT sum(num2 + 1) FROM S`, "must be a column"},
		{"aggregate with two args", `SELECT sum(num2, num3) FROM S`, "one column argument"},
		{"star aggregate not count", `SELECT min(*) FROM S`, "only count(*)"},
		{"group by without aggregates", `SELECT pkey FROM S GROUP BY pkey`, "require aggregates"},
		{"star mixed with expressions", `SELECT *, pkey FROM S`, "cannot be mixed"},
		{"three tables", `SELECT 1 FROM R, S, robots`, "at most two tables"},
		{"unknown table", `SELECT x FROM nosuch`, "unknown table"},
		{"ambiguous column", `SELECT num2 FROM R, S WHERE R.num1 = S.pkey`, "ambiguous"},
		{"unknown table alias", `SELECT z.pkey FROM S`, "unknown table alias"},
		{"empty statement", ``, "expected SELECT"},
		{"bare select", `SELECT`, ""},
		{"no from", `SELECT 1`, "expected FROM"},
		{"trailing garbage", `SELECT pkey FROM S banana extra`, "trailing input"},
		{"unterminated string", `SELECT 'oops FROM S`, "unterminated string"},
		{"aggregate in where", `SELECT pkey FROM S WHERE count(pkey) > 1`, "not allowed here"},
		{"EVERY without duration", `SELECT count(*) FROM S EVERY`, "EVERY expects"},
		{"EVERY unquoted", `SELECT count(*) FROM S EVERY 10`, "EVERY expects"},
		{"EVERY not a duration", `SELECT count(*) FROM S EVERY 'soon'`, "EVERY expects"},
		{"EVERY zero", `SELECT count(*) FROM S EVERY '0s'`, "EVERY expects"},
		{"EVERY negative", `SELECT count(*) FROM S EVERY '-1s'`, "EVERY expects"},
		{"WINDOWS zero", `SELECT count(*) FROM S EVERY '1s' WINDOWS 0`, "WINDOWS expects"},
		{"WINDOWS fraction", `SELECT count(*) FROM S EVERY '1s' WINDOWS 2.5`, "WINDOWS expects"},
		{"WINDOWS quoted", `SELECT count(*) FROM S EVERY '1s' WINDOWS '3'`, "WINDOWS expects"},
		{"WINDOWS without EVERY", `SELECT count(*) FROM S WINDOWS 3`, "trailing input"},
		{"WAIT before EVERY", `SELECT count(*) FROM S WAIT '1s' EVERY '1s'`, "trailing input"},
		{"WAIT without duration", `SELECT count(*) FROM S WAIT`, "WAIT expects"},
		{"WAIT on a plain select", `SELECT pkey FROM S WAIT '1s'`, "WAIT needs an aggregate or a join"},
		{"EVERY on a join", `SELECT R.pkey FROM R, S WHERE R.num1 = S.pkey EVERY '1s'`, "single table"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("panicked on %q: %v", tc.src, r)
				}
			}()
			p, err := Plan(tc.src, testCat)
			if err == nil {
				t.Fatalf("accepted %q: %+v", tc.src, p)
			}
			if tc.wantErr != "" && !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not mention %q", err, tc.wantErr)
			}
		})
	}
}

// TestInListLowering verifies the IN desugaring: the predicate must
// behave as the OR of equalities over the listed values.
func TestInListLowering(t *testing.T) {
	p, err := Plan(`SELECT pkey FROM S WHERE num2 IN (1, 3, 5)`, testCat)
	if err != nil {
		t.Fatal(err)
	}
	f := p.Tables[0].Filter
	if f == nil {
		t.Fatal("IN predicate produced no filter")
	}
	for _, tc := range []struct {
		num2 int64
		want bool
	}{{1, true}, {3, true}, {5, true}, {2, false}, {0, false}} {
		row := []core.Value{int64(9), tc.num2, int64(0)}
		if got := core.Truthy(f.Eval(row)); got != tc.want {
			t.Errorf("num2=%d: filter=%v, want %v", tc.num2, got, tc.want)
		}
	}

	notP, err := Plan(`SELECT pkey FROM S WHERE num2 NOT IN (1, 3)`, testCat)
	if err != nil {
		t.Fatal(err)
	}
	nf := notP.Tables[0].Filter
	for _, tc := range []struct {
		num2 int64
		want bool
	}{{1, false}, {3, false}, {2, true}} {
		row := []core.Value{int64(9), tc.num2, int64(0)}
		if got := core.Truthy(nf.Eval(row)); got != tc.want {
			t.Errorf("NOT IN num2=%d: filter=%v, want %v", tc.num2, got, tc.want)
		}
	}
}

// TestInListOnJoinQuery ensures IN composes with a join: it lands in
// the right table's local filter.
func TestInListOnJoinQuery(t *testing.T) {
	p, err := Plan(`SELECT R.pkey, S.pkey FROM R, S WHERE R.num1 = S.pkey AND S.num2 IN (1, 2)`, testCat)
	if err != nil {
		t.Fatal(err)
	}
	if p.Tables[1].Filter == nil {
		t.Fatal("S-side IN predicate not pushed to S's filter")
	}
	if p.Tables[0].Filter != nil {
		t.Fatal("IN predicate leaked into R's filter")
	}
}
