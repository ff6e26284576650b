package exec

import (
	"dyntables/internal/plan"
	"dyntables/internal/types"
)

// Invertible reports whether a grouped aggregate can be maintained by
// folding signed input rows into stored accumulators (GroupState): it has
// a GROUP BY; every aggregate is COUNT(*), COUNT(x), COUNT_IF(x) or SUM(x)
// with x of an INT-family kind, none DISTINCT; and no group-by or argument
// expression is volatile. AVG is left out because its float sum is not
// exactly invertible, and MIN and MAX because a deleted extreme needs the
// group's other rows.
func Invertible(a *plan.Aggregate) bool {
	if len(a.GroupBy) == 0 {
		return false
	}
	for _, g := range a.GroupBy {
		if plan.VolatileExpr(g) {
			return false
		}
	}
	for _, agg := range a.Aggs {
		if agg.Distinct || plan.VolatileExpr(agg.Arg) {
			return false
		}
		switch agg.Kind {
		case plan.AggCount, plan.AggCountIf:
		case plan.AggSum:
			if !plan.InferKind(agg.Arg).IntFamily() {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// GroupState is the per-group state of an Invertible aggregate over some
// input: each group's row count, key values and accumulators, exactly as
// AggregateRows would build them from that input. Fold moves it to another
// input by the signed difference between the two, so its cost is the
// difference's size and not the input's.
//
// A group's output row takes its key values from the group's first input
// row, and key normalization merges INT 3 with FLOAT 3.0, so the state
// represents only inputs in which every row of a group has byte-identical
// raw key values; it also represents only INT-family SUM values, whose sum
// wraps in int64 and is exactly invertible. Fold reports anything else as
// not representable.
type GroupState struct {
	t *groupTable
}

// NewGroupState returns the state of a over an empty input.
func NewGroupState(a *plan.Aggregate) *GroupState {
	return &GroupState{t: newGroupTable(a, true)}
}

// GroupChange is one group's output row before and after a Fold. Old is
// nil when the group had no input rows before, New when it has none after.
type GroupChange struct {
	ID       string
	Old, New types.Row
}

// Fold takes deleted out of the state's input and adds inserted to it:
// deleted must be rows of the input, and inserted rows not in it, as in a
// consolidated change set. It returns the change of every group it
// touched, in first-touched order; a group whose row is unchanged is
// returned too, with equal Old and New. ok is false when the new input is
// not representable (see GroupState), and then the state is left
// inconsistent and must be dropped.
func (s *GroupState) Fold(deleted, inserted []TRow, ctx *Context) (_ []GroupChange, ok bool, _ error) {
	var touched []GroupChange
	seen := make(map[string]int)
	visit := func(key []byte, g *group) {
		if _, ok := seen[string(key)]; ok {
			return
		}
		k := string(key)
		seen[k] = len(touched)
		c := GroupChange{ID: GroupRowID(k)}
		if g != nil {
			c.Old = s.t.row(g)
		}
		touched = append(touched, c)
	}
	if ok, err := s.t.foldRows(deleted, -1, ctx, visit); !ok || err != nil {
		return nil, false, err
	}
	if ok, err := s.t.foldRows(inserted, 1, ctx, visit); !ok || err != nil {
		return nil, false, err
	}
	for key, i := range seen {
		if g := s.t.groups[key]; g != nil {
			touched[i].New = s.t.row(g)
		}
	}
	return touched, true, nil
}

// Add adds rows to the state's input, as Fold does with inserted rows
// alone, without rendering the groups' rows.
func (s *GroupState) Add(rows []TRow, ctx *Context) (ok bool, _ error) {
	return s.t.foldRows(rows, 1, ctx, nil)
}
