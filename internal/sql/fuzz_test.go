package sql_test

import (
	"testing"

	"pier/internal/sql"
	"pier/internal/workload"
)

// fuzzCat holds every table the repository's SQL texts name: the
// workload's R and S, and the tables of the examples, the experiments
// and the tests.
var fuzzCat = func() sql.Catalog {
	cat := sql.Catalog{
		"T": {Name: "T", Cols: []string{"pkey", "num", "grp"}, Key: "pkey",
			Indexes: []sql.Index{{Name: "t_num", Col: "num"}}},
		"U":            {Name: "U", Cols: []string{"pkey", "ref"}, Key: "pkey"},
		"fish":         {Name: "fish", Cols: []string{"name", "size"}, Key: "name"},
		"files":        {Name: "files", Cols: []string{"name", "size", "host"}, Key: "name"},
		"intrusions":   {Name: "intrusions", Cols: []string{"fingerprint", "address"}, Key: "fingerprint"},
		"reputation":   {Name: "reputation", Cols: []string{"address", "weight"}, Key: "address"},
		"spamGateways": {Name: "spamGateways", Cols: []string{"source", "smtpGWDomain"}, Key: "source"},
		"robots":       {Name: "robots", Cols: []string{"clientDomain"}, Key: "clientDomain"},
		"employees":    {Name: "employees", Cols: []string{"id", "dept", "salary"}, Key: "id"},
		"depts":        {Name: "depts", Cols: []string{"dept", "name"}, Key: "dept"},
		"packets":      {Name: "packets", Cols: []string{"src", "port", "size"}, Key: "src"},
		"links":        {Name: "links", Cols: []string{"src", "dst"}, Key: "src"},
		"frontier1":    {Name: "frontier1", Cols: []string{"addr"}, Key: "addr"},
		"hosts":        {Name: "hosts", Cols: []string{"addr", "load"}, Key: "addr"},
		"conf":         {Name: "conf", Cols: []string{"k", "v"}, Key: "k"},
		"m":            {Name: "m", Cols: []string{"grp", "v"}, Key: "grp"},
	}
	for name, tb := range workload.Catalog {
		cat[name] = tb
	}
	return cat
}()

// FuzzPlan feeds the front end arbitrary text. Whatever it is, the
// lexer, parser and planner must answer with a plan or an error, never
// a panic, and a plan they answer with must pass Validate. The seeds
// are the SQL texts the repository itself runs or tests.
func FuzzPlan(f *testing.F) {
	for _, src := range []string{
		// The §5.1 workload join, as workload.JoinPlan and TraceDemo write it.
		`SELECT R.pkey, S.pkey FROM R, S WHERE R.num1 = S.pkey AND R.num2 > 49 AND S.num2 > -1
			AND f(R.num3, S.num3) > 49 USING STRATEGY 'symmetric semi-join'`,
		`EXPLAIN TRACE SELECT R.pkey, S.pkey FROM R, S WHERE R.num1 = S.pkey AND R.num2 > 49 AND S.num2 > 49 AND f(R.num3, S.num3) > 49`,
		`SELECT R.pkey, S.pkey FROM R, S WHERE R.num1 = S.pkey AND S.num2 IN (1, 2) USING STRATEGY 'bloom filter' WAIT '5s'`,
		// The chaos harness's shapes.
		`SELECT pkey, num2 FROM S WHERE num2 > 49`,
		`SELECT num3, count(*), sum(num2) FROM S WHERE num2 > 29 GROUP BY num3 WAIT '8s'`,
		`SELECT count(*) FROM S EVERY '10s' WAIT '5s'`,
		`SELECT seq FROM F`,
		// The experiments' and examples' shapes.
		`SELECT grp, count(*), sum(v) FROM m GROUP BY grp WAIT '10s'`,
		`SELECT src, count(*), sum(size) FROM packets GROUP BY src EVERY '10s' WINDOWS 3 WAIT '4s'`,
		`SELECT links.dst FROM frontier1, links WHERE frontier1.addr = links.src USING STRATEGY 'fetch matches'`,
		`SELECT I.fingerprint, count(*) AS cnt FROM intrusions AS I GROUP BY I.fingerprint HAVING cnt > 10 WAIT '5s'`,
		`SELECT I.fingerprint, count(*) * sum(R.weight) AS wcnt FROM intrusions AS I, reputation AS R
			WHERE R.address = I.address GROUP BY I.fingerprint HAVING wcnt > 10`,
		`SELECT S.source FROM spamGateways AS S, robots AS R WHERE S.smtpGWDomain = R.clientDomain`,
		`SELECT e.id, d.name, e.salary FROM employees AS e, depts AS d WHERE e.dept = d.dept AND e.salary > 60
			USING STRATEGY 'symmetric hash'`,
		`SELECT name, size, host FROM files WHERE name = 'ubuntu-24.04.iso' OR size > 1000000`,
		// Range, index and DDL forms.
		`SELECT pkey, num FROM T WHERE num >= 1000 AND num < 3500`,
		`SELECT pkey FROM T WHERE 7 <= num AND num != 9 AND NOT num IN (3, 4)`,
		`SELECT grp, count(*) AS cnt, sum(num) AS total FROM T WHERE pkey >= 1000 GROUP BY grp`,
		`EXPLAIN TRACE SELECT pkey, num FROM T WHERE num >= 10 AND num < 20`,
		`CREATE INDEX t_num ON T (num)`,
		// The REST fleet's continuous GROUP BY and its neighbours.
		`SELECT name, count(*) FROM fish GROUP BY name EVERY '1s' WINDOWS 3 WAIT '500ms'`,
		`SELECT name, size FROM fish WHERE size < 10`,
		`SELECT * FROM intrusions WHERE fingerprint = 'x'`,
		`SELECT a.b, 'it''s', 3.5 >= x -- comment
			FROM t`,
		`SELECT count(*) FROM S EVERY '1s' WINDOWS 2.5`,
		`SELECT x FROM t WHERE (a = 1`,
	} {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		p, err := sql.Plan(src, fuzzCat)
		if err != nil {
			return
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("planned %q into an invalid plan: %v", src, err)
		}
	})
}
