package experiments

import (
	"fmt"
	"time"

	"pier/internal/core"
	"pier/internal/topology"
)

// SelectivityConfig drives Figures 4 and 5: sweep the selectivity of the
// predicate on S and measure, per join strategy, the aggregate network
// traffic (Figure 4) and the time to the last result tuple under
// 10 Mbps inbound links (Figure 5).
type SelectivityConfig struct {
	Nodes         int
	STuples       int
	Selectivities []float64
	Seed          int64
}

// DefaultSelectivity returns the scaled default (paper: n=1024,
// |R|+|S| ≈ 1 GB).
func DefaultSelectivity(full bool) SelectivityConfig {
	cfg := SelectivityConfig{
		Nodes:         128,
		STuples:       400,
		Selectivities: []float64{0.1, 0.3, 0.5, 0.7, 0.9, 1.0},
		Seed:          21,
	}
	if full {
		cfg.Nodes = 1024
		cfg.STuples = 4000
		cfg.Selectivities = []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0}
	}
	return cfg
}

var selStrategies = []core.Strategy{core.SymmetricHash, core.FetchMatches, core.SymmetricSemiJoin, core.BloomJoin}

// Selectivity runs the sweep once and renders both figures from the same
// measurements.
func Selectivity(cfg SelectivityConfig) (fig4, fig5 *Table) {
	fig4 = &Table{
		Title:   fmt.Sprintf("Figure 4: aggregate network traffic (MB) vs selectivity of predicate on S (n=%d)", cfg.Nodes),
		Note:    "expected shape: sym-hash highest & growing, fetch-matches flat, semi-join linear, bloom approaches sym-hash as selectivity rises",
		Headers: []string{"selectivity"},
	}
	fig5 = &Table{
		Title:   fmt.Sprintf("Figure 5: time to last result tuple (s) vs selectivity of predicate on S (n=%d, 10Mbps inbound)", cfg.Nodes),
		Headers: []string{"selectivity"},
	}
	for _, s := range selStrategies {
		fig4.Headers = append(fig4.Headers, s.String())
		fig5.Headers = append(fig5.Headers, s.String())
	}
	for _, sel := range cfg.Selectivities {
		row4 := []string{fmt.Sprintf("%.0f%%", sel*100)}
		row5 := []string{fmt.Sprintf("%.0f%%", sel*100)}
		for _, s := range selStrategies {
			res := RunJoin(JoinConfig{
				Nodes:    cfg.Nodes,
				Topo:     topology.NewFullMesh(),
				Seed:     cfg.Seed,
				Strategy: s,
				STuples:  cfg.STuples,
				SelS:     sel,
				Limit:    8 * time.Hour,
			})
			row4 = append(row4, fmt.Sprintf("%.1f", res.StrategyMB))
			row5 = append(row5, secs(res.TimeToLast))
		}
		fig4.Rows = append(fig4.Rows, row4)
		fig5.Rows = append(fig5.Rows, row5)
	}
	return fig4, fig5
}
