package core

import "pier/internal/wire"

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
