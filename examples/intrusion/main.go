// Intrusion detection: the paper's §2.1 motivating application. Nodes
// publish attack fingerprints into PIER's distributed index with a
// soft-state lifetime, and organizations run the paper's three example
// queries over the live data:
//
//  1. a join finding compromised hosts (spam gateway + web robot in the
//     same domain),
//  2. a global fingerprint summary with HAVING,
//  3. a reputation-weighted summary (join + group by + computed column).
package main

import (
	"fmt"
	"math/rand"
	"time"

	"pier"
	"pier/internal/topology"
)

var cat = pier.Catalog{
	"spamGateways": {Name: "spamGateways", Cols: []string{"source", "smtpGWDomain"}, Key: "source"},
	"robots":       {Name: "robots", Cols: []string{"clientDomain"}, Key: "clientDomain"},
	"intrusions":   {Name: "intrusions", Cols: []string{"fingerprint", "address"}, Key: "fingerprint"},
	"reputation":   {Name: "reputation", Cols: []string{"address", "weight"}, Key: "address"},
}

func main() {
	sn := pier.NewSimNetwork(64, topology.NewFullMesh(), 7, pier.DefaultOptions())
	rng := rand.New(rand.NewSource(7))
	publishFingerprints(sn, rng)

	// Query 1 (§2.1): unrestricted email gateways in the same subnet as
	// a web robot — likely compromised hosts.
	q1, err := pier.ParseSQL(`
		SELECT S.source
		FROM spamGateways AS S, robots AS R
		WHERE S.smtpGWDomain = R.clientDomain`, cat)
	must(err)
	rows, _, err := sn.Collect(0, q1, 0, 2*time.Minute)
	must(err)
	fmt.Println("== compromised hosts (spam gateway + robot in one domain) ==")
	for _, r := range rows {
		fmt.Printf("  %v\n", r.Vals[0])
	}

	// Query 2 (§2.1): widespread attacks.
	q2, err := pier.ParseSQL(`
		SELECT I.fingerprint, count(*) AS cnt
		FROM intrusions AS I
		GROUP BY I.fingerprint
		HAVING cnt > 10
		WAIT '5s'`, cat)
	must(err)
	rows, _, err = sn.Collect(0, q2, 0, 2*time.Minute)
	must(err)
	fmt.Println("== widespread attack fingerprints (count > 10) ==")
	for _, r := range rows {
		fmt.Printf("  %-12v reports=%v\n", r.Vals[0], r.Vals[1])
	}

	// Query 3 (§2.1): weight reports by the reporters' reputations.
	q3, err := pier.ParseSQL(`
		SELECT I.fingerprint, count(*) * sum(R.weight) AS wcnt
		FROM intrusions AS I, reputation AS R
		WHERE R.address = I.address
		GROUP BY I.fingerprint
		HAVING wcnt > 10
		WAIT '8s'`, cat)
	must(err)
	rows, _, err = sn.Collect(0, q3, 0, 2*time.Minute)
	must(err)
	fmt.Println("== reputation-weighted fingerprints (wcnt > 10) ==")
	for _, r := range rows {
		fmt.Printf("  %-12v wcnt=%v\n", r.Vals[0], r.Vals[1])
	}
}

// publishFingerprints stands in for the paper's wrappers around mail
// servers, Snort, and web logs: every node publishes what it observed,
// with a lifetime, directly through the provider API.
func publishFingerprints(sn *pier.SimNetwork, rng *rand.Rand) {
	domains := []string{"campus.edu", "isp.net", "cloud.io", "corp.example"}
	// Spam gateways and robots: overlapping domains are the signal.
	iid := int64(0)
	for i, d := range domains {
		iid++
		sn.Load("spamGateways", fmt.Sprintf("gw%d", i), iid,
			&pier.Tuple{Rel: "spamGateways", Vals: []pier.Value{fmt.Sprintf("gw%d.%s", i, d), d}}, 0)
	}
	for _, d := range []string{"campus.edu", "cloud.io"} {
		iid++
		sn.Load("robots", d, iid, &pier.Tuple{Rel: "robots", Vals: []pier.Value{d}}, 0)
	}
	// Attack fingerprints from many reporters: fpSlammer is widespread,
	// fpProbe is rare.
	reporters := make([]string, 24)
	for i := range reporters {
		reporters[i] = fmt.Sprintf("10.1.%d.%d", rng.Intn(256), rng.Intn(256))
	}
	for i := 0; i < 18; i++ {
		iid++
		addr := reporters[rng.Intn(len(reporters))]
		sn.Load("intrusions", fmt.Sprintf("fpSlammer/%d", iid), iid,
			&pier.Tuple{Rel: "intrusions", Vals: []pier.Value{"fpSlammer", addr}}, 0)
	}
	for i := 0; i < 4; i++ {
		iid++
		addr := reporters[rng.Intn(len(reporters))]
		sn.Load("intrusions", fmt.Sprintf("fpProbe/%d", iid), iid,
			&pier.Tuple{Rel: "intrusions", Vals: []pier.Value{"fpProbe", addr}}, 0)
	}
	// Reputations: every reporter is known with weight 1..3.
	for _, addr := range reporters {
		iid++
		sn.Load("reputation", addr, iid,
			&pier.Tuple{Rel: "reputation", Vals: []pier.Value{addr, int64(1 + rng.Intn(3))}}, 0)
	}
}

func must(err error) {
	if err != nil {
		panic(err)
	}
}
