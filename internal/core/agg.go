package core

import (
	"hash/fnv"
	"strconv"

	"pier/internal/wire"
)

// AggState is the mergeable partial state of one aggregate on one node.
// PIER computes aggregates the parallel-database way (§7 "Hierarchical
// aggregation"): each node folds its local rows into an AggState, puts
// the partial into the query's aggregation namespace keyed by group, and
// the owner of the group key merges partials from all nodes.
type AggState struct {
	Count int64
	SumI  int64
	SumF  float64
	Float bool
	MinV  Value
	MaxV  Value
	Seen  bool
}

// Update folds one value into the state. COUNT(*) updates pass nil.
func (s *AggState) Update(v Value) {
	s.Count++
	switch x := v.(type) {
	case int64:
		s.SumI += x
	case float64:
		s.Float = true
		s.SumF += x
	}
	if v == nil {
		return
	}
	if !s.Seen {
		s.MinV, s.MaxV, s.Seen = v, v, true
		return
	}
	if CompareValues(v, s.MinV) < 0 {
		s.MinV = v
	}
	if CompareValues(v, s.MaxV) > 0 {
		s.MaxV = v
	}
}

// Merge folds another partial state into this one.
func (s *AggState) Merge(o *AggState) {
	s.Count += o.Count
	s.SumI += o.SumI
	s.SumF += o.SumF
	s.Float = s.Float || o.Float
	if o.Seen {
		if !s.Seen {
			s.MinV, s.MaxV, s.Seen = o.MinV, o.MaxV, true
		} else {
			if CompareValues(o.MinV, s.MinV) < 0 {
				s.MinV = o.MinV
			}
			if CompareValues(o.MaxV, s.MaxV) > 0 {
				s.MaxV = o.MaxV
			}
		}
	}
}

// Final produces the aggregate's value for the given kind.
func (s *AggState) Final(kind AggKind) Value {
	switch kind {
	case Count:
		return s.Count
	case Sum:
		if s.Float {
			return s.SumF + float64(s.SumI)
		}
		return s.SumI
	case Avg:
		if s.Count == 0 {
			return nil
		}
		return (s.SumF + float64(s.SumI)) / float64(s.Count)
	case Min:
		if !s.Seen {
			return nil
		}
		return s.MinV
	default:
		if !s.Seen {
			return nil
		}
		return s.MaxV
	}
}

// WireSize implements env.Message.
func (s *AggState) WireSize() int { return wire.Size(s) }

// groupKey names one group of one window in a groupSet.
type groupKey struct {
	window int
	gkey   string
}

// partialGroup is one group's aggregate states: fed row by row where
// rows are produced, or merged from stored partials at a collector.
type partialGroup struct {
	window int
	group  []Value
	states []*AggState
	// rid is "<window>|<group key>" where rows feed the group (the
	// resourceID flushPartials puts under), and the stored partials'
	// resourceID where a collector merged them.
	rid   string
	dirty bool
}

// groupSet holds the groups rows have fed. dirty lists, in the order
// each was first fed, the groups fed since the set was last drained.
type groupSet struct {
	m     map[groupKey]*partialGroup
	dirty []*partialGroup
}

// newGroup returns an empty group with one state per plan aggregate.
func (p *Plan) newGroup(w int, group []Value, rid string) *partialGroup {
	states := make([]*AggState, len(p.Aggs))
	for i := range states {
		states[i] = &AggState{}
	}
	return &partialGroup{window: w, group: group, states: states, rid: rid}
}

// feed folds a row into the group it belongs to in window w, creating
// the group the first time the window sees its key.
func (p *Plan) feed(gs *groupSet, w int, row *Tuple) {
	key := groupKey{window: w, gkey: JoinKeyString(row, p.GroupBy)}
	pg, ok := gs.m[key]
	if !ok {
		group := make([]Value, len(p.GroupBy))
		for i, c := range p.GroupBy {
			group[i] = row.At(c)
		}
		pg = p.newGroup(w, group, strconv.Itoa(w)+"|"+key.gkey)
		if gs.m == nil {
			gs.m = make(map[groupKey]*partialGroup)
		}
		gs.m[key] = pg
	}
	for i, a := range p.Aggs {
		// At returns nil for COUNT(*)'s -1 and for hostile indexes alike.
		pg.states[i].Update(row.At(a.Col))
	}
	if !pg.dirty {
		pg.dirty = true
		gs.dirty = append(gs.dirty, pg)
	}
}

// finish turns a complete group into its result row: the group
// columns, then each aggregate's final value, through HAVING and
// Output. It returns nil when HAVING rejects the group.
func (p *Plan) finish(pg *partialGroup) *Tuple {
	row := make([]Value, 0, len(pg.group)+len(pg.states))
	row = append(row, pg.group...)
	for i, s := range pg.states {
		row = append(row, s.Final(p.Aggs[i].Kind))
	}
	if !pass(p.Having, row) {
		return nil
	}
	if len(p.Output) > 0 {
		row = evalAll(p.Output, row)
	}
	return &Tuple{Rel: "group", Vals: row}
}

// StableIID derives a stable instanceID from a name. The engine's
// level-1 aggregation combiners put their combined partial under it,
// so distinct sites (and re-combines) never collide at the root; the
// index agent puts each definition under its index name's, so a
// re-announce replaces it.
func StableIID(rid string) int64 {
	h := fnv.New64a()
	h.Write([]byte(rid))
	return int64(h.Sum64() >> 1)
}
