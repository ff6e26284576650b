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
//
// The state is a signed groupTable. Its slabs grow with its groups, and
// the seeding Add trims their growth slack; a group whose rows all go
// frees its slot for the next new group, and an INT-family key allocates
// nothing per group.
type GroupState struct {
	a *plan.Aggregate
	t *groupTable
}

// NewGroupState returns the state of a over an empty input.
func NewGroupState(a *plan.Aggregate) *GroupState {
	return &GroupState{a: a}
}

// table returns the state's table. The state outlives its input, so its
// slabs grow with its groups rather than presize from an input's length.
func (s *GroupState) table() *groupTable {
	if s.t == nil {
		s.t = newGroupTable(s.a, true, 0)
	}
	return s.t
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
// inconsistent and must be dropped. The changes' Old rows share one
// backing array and their New rows another, so a kept New row pins no Old
// row, and their IDs share one string.
func (s *GroupState) Fold(deleted, inserted []TRow, ctx *Context) (_ []GroupChange, ok bool, _ error) {
	t := s.table()
	log := newFoldLog(t, len(deleted)+len(inserted))
	if ok, err := t.foldRows(deleted, -1, ctx, log); !ok || err != nil {
		return nil, false, err
	}
	if ok, err := t.foldRows(inserted, 1, ctx, log); !ok || err != nil {
		return nil, false, err
	}
	return log.changes(t), true, nil
}

// Add adds rows to the state's input, as Fold does with inserted rows
// alone, without rendering the groups' rows. It seeds a state that then
// lives on, so it leaves the slabs no longer than their groups need.
func (s *GroupState) Add(rows []TRow, ctx *Context) (ok bool, _ error) {
	t := s.table()
	if ok, err := t.foldRows(rows, 1, ctx, nil); !ok || err != nil {
		return false, err
	}
	t.fit()
	return true, nil
}

// foldLog records the groups one Fold touches, in first-touched order,
// with each one's row ID and, for a group that had rows before the Fold,
// its row then. A slot whose group loses its rows stays in the index until
// changes releases it, so a slot stands for one group throughout a Fold.
type foldLog struct {
	at      map[int32]bool
	touched []touchedGroup
	// old holds the touched groups' Old rows back to back.
	old types.Row
	ids rowIDs
	key []byte
}

// touchedGroup is one group a Fold touched.
type touchedGroup struct {
	slot   int32
	hadOld bool
}

// newFoldLog returns an empty log for a Fold of n rows into t.
func newFoldLog(t *groupTable, n int) *foldLog {
	n = min(n, maxPresize)
	l := &foldLog{
		at:      make(map[int32]bool, n),
		touched: make([]touchedGroup, 0, n),
		old:     make(types.Row, 0, n*t.width()),
	}
	l.ids.grow(n)
	return l
}

// touch records slot s's group unless the Fold has touched it already.
// A group that the current row starts had no rows before, whatever its
// slot holds by the time the log sees it.
func (l *foldLog) touch(t *groupTable, s int32, started bool) {
	if l.at[s] {
		return
	}
	l.at[s] = true
	g := touchedGroup{slot: s, hadOld: !started && t.rows[s] > 0}
	if g.hadOld {
		l.old = t.render(l.old, s)
	}
	l.touched = append(l.touched, g)
	l.key = appendKey(l.key[:0], t.keyVals(s))
	l.ids.add('g', l.key)
}

// changes renders the touched groups' changes and then frees the slots of
// those left without rows.
func (l *foldLog) changes(t *groupTable) []GroupChange {
	w := t.width()
	news := 0
	for _, g := range l.touched {
		if t.rows[g.slot] > 0 {
			news++
		}
	}
	backing := make(types.Row, news*w)
	out := make([]GroupChange, len(l.touched))
	o, n := 0, 0
	for i, g := range l.touched {
		out[i].ID = l.ids.at(i)
		if g.hadOld {
			out[i].Old = l.old[o : o+w : o+w]
			o += w
		}
		if t.rows[g.slot] > 0 {
			out[i].New = t.render(backing[n:n:n+w], g.slot)
			n += w
		}
	}
	for _, g := range l.touched {
		if t.rows[g.slot] == 0 {
			t.release(g.slot)
		}
	}
	return out
}
