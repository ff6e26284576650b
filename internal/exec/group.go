package exec

import (
	"fmt"

	"dyntables/internal/plan"
	"dyntables/internal/types"
)

// groupTable is the one grouping kernel: GROUP BY on the row path
// (AggregateRows) and the columnar path (aggregateBatch), the stored
// accumulators of GroupState, and DISTINCT (DistinctRows) all run through
// it. It maps the encoding of a row's normalized key values to the row's
// group. A group takes its key values from its first row and holds one
// accumulator per aggregate and its row count; the aggregates themselves
// belong to the table. The current row's key is encoded into one reused
// buffer, and the lookup converts it without allocating, so a row of a
// group already seen allocates nothing.
type groupTable struct {
	keys []plan.Expr
	aggs []plan.AggExpr
	// distinct tables group on their rows' whole values, and a group's
	// key values are its first row itself.
	distinct bool
	// signed tables fold rows out as well as in (GroupState): they track
	// each group's raw key bytes, drop a group when its last row goes,
	// and keep no first-seen order.
	signed bool

	groups map[string]*group
	order  []*group

	// key and raw are the current row's normalized and raw key encodings,
	// vals and args its key values and aggregate arguments; all are
	// reused from row to row.
	key, raw   []byte
	vals, args types.Row
}

// group is one group of a groupTable.
type group struct {
	key  string
	vals types.Row
	rows int64
	// raw is the encoding of the key values un-normalized; signed tables
	// only.
	raw  string
	accs []accumulator
}

// newGroupTable returns an empty table grouping by a's keys and
// accumulating a's aggregates.
func newGroupTable(a *plan.Aggregate, signed bool) *groupTable {
	return &groupTable{
		keys:   a.GroupBy,
		aggs:   a.Aggs,
		signed: signed,
		groups: make(map[string]*group),
		vals:   make(types.Row, len(a.GroupBy)),
		args:   make(types.Row, len(a.Aggs)),
	}
}

// newDistinctTable returns an empty table grouping on whole rows.
func newDistinctTable() *groupTable {
	return &groupTable{distinct: true, groups: make(map[string]*group)}
}

// encode encodes the current row's key values.
func (t *groupTable) encode(vals types.Row) {
	t.key = t.key[:0]
	for _, v := range vals {
		t.key = normalizeKeyValue(v).EncodeKey(t.key)
	}
	if t.signed {
		t.raw = vals.EncodeKey(t.raw[:0])
	}
}

// fold folds the current row, whose key values vals encode has just
// encoded and whose aggregate arguments are args, into its group g (nil
// when the row starts one) with multiplicity sign. ok is false when a
// signed table cannot represent the row: it deletes from a group the table
// does not hold, its raw key differs from its group's, or a SUM argument is
// outside the INT family (see GroupState).
func (t *groupTable) fold(g *group, vals, args types.Row, sign int64) (ok bool, _ error) {
	switch {
	case g == nil && sign < 0:
		return false, nil
	case g == nil:
		g = t.add(vals)
	case t.signed && g.raw != string(t.raw):
		return false, nil
	}
	for i := range g.accs {
		agg := &t.aggs[i]
		if t.signed && agg.Kind == plan.AggSum && !args[i].IsNull() && !args[i].Kind().IntFamily() {
			return false, nil
		}
		if err := g.accs[i].fold(agg, args[i], sign); err != nil {
			return false, err
		}
	}
	if g.rows += sign; g.rows == 0 {
		delete(t.groups, g.key)
	}
	return true, nil
}

// add starts the current row's group.
func (t *groupTable) add(vals types.Row) *group {
	g := &group{key: string(t.key), vals: vals, accs: make([]accumulator, len(t.aggs))}
	if !t.distinct {
		g.vals = vals.Clone()
	}
	if t.signed {
		if g.raw = g.key; string(t.raw) != g.key {
			g.raw = string(t.raw)
		}
	} else {
		t.order = append(t.order, g)
	}
	for i, agg := range t.aggs {
		if agg.Distinct {
			g.accs[i].distinct = make(map[string]bool)
		}
	}
	t.groups[g.key] = g
	return g
}

// foldRows folds rows into the table with multiplicity sign, evaluating
// each row's key values and aggregate arguments. visit, when non-nil, sees
// each row's encoded key and group (nil when the row starts it) before the
// row folds in. ok is false as fold reports it.
func (t *groupTable) foldRows(rows []TRow, sign int64, ctx *Context, visit func(key []byte, g *group)) (ok bool, err error) {
	ev := ctx.eval()
	ticks := 0
	for _, tr := range rows {
		if err := ctx.tick(&ticks); err != nil {
			return false, err
		}
		vals := tr.Row
		if !t.distinct {
			vals = t.vals
			for i, e := range t.keys {
				if vals[i], err = plan.Eval(e, tr.Row, ev); err != nil {
					return false, err
				}
			}
		}
		for i := range t.aggs {
			t.args[i] = types.Null
			if arg := t.aggs[i].Arg; arg != nil {
				if t.args[i], err = plan.Eval(arg, tr.Row, ev); err != nil {
					return false, err
				}
			}
		}
		t.encode(vals)
		g := t.groups[string(t.key)]
		if visit != nil {
			visit(t.key, g)
		}
		if ok, err := t.fold(g, vals, t.args, sign); !ok || err != nil {
			return false, err
		}
	}
	return true, nil
}

// result renders the groups in first-seen order, each with the row ID id
// derives from its encoded key. A global aggregate (no GROUP BY) over
// empty input yields one row.
func (t *groupTable) result(id func(encodedKey string) string) []TRow {
	if len(t.order) == 0 && len(t.keys) == 0 && !t.distinct {
		t.encode(nil)
		t.add(nil)
	}
	out := make([]TRow, len(t.order))
	for i, g := range t.order {
		out[i] = TRow{ID: id(g.key), Row: t.row(g)}
	}
	return out
}

// row renders a group's output row: its key values, then each aggregate's
// result. A distinct group's row is its first row.
func (t *groupTable) row(g *group) types.Row {
	if t.distinct {
		return g.vals
	}
	row := make(types.Row, 0, len(g.vals)+len(g.accs))
	row = append(row, g.vals...)
	for i := range g.accs {
		row = append(row, g.accs[i].result(&t.aggs[i]))
	}
	return row
}

// accumulator is one aggregate's state within a group. The aggregate it
// computes is the table's, so the group holds only the state: v is the
// current MIN, MAX or ANY_VALUE, whichever one the aggregate is.
type accumulator struct {
	count    int64
	sumInt   int64
	sumFloat float64
	v        types.Value
	distinct map[string]bool
	isFloat  bool
}

// fold folds one argument value of agg in with multiplicity sign: +1 adds
// it, and −1 takes back a value added before (GroupState), which only the
// invertible kinds (Invertible) support. A −1 subtracts exactly what a +1
// adds, so a sum wraps past MaxInt64 the same whichever order values come
// and go in.
func (a *accumulator) fold(agg *plan.AggExpr, v types.Value, sign int64) error {
	switch agg.Kind {
	case plan.AggCount:
		if agg.Arg == nil {
			a.count += sign
			return nil
		}
		if v.IsNull() {
			return nil
		}
		if a.distinct != nil {
			k := string(normalizeKeyValue(v).EncodeKey(nil))
			if a.distinct[k] {
				return nil
			}
			a.distinct[k] = true
		}
		a.count += sign
	case plan.AggCountIf:
		if !v.IsNull() && v.Kind() == types.KindBool && v.Bool() {
			a.count += sign
		}
	case plan.AggSum, plan.AggAvg:
		if v.IsNull() {
			return nil
		}
		if !v.Numeric() {
			return fmt.Errorf("exec: %s requires numeric input, got %s", agg.Kind, v.Kind())
		}
		a.count += sign
		if v.Kind() == types.KindFloat {
			a.isFloat = true
		}
		if a.isFloat {
			a.sumFloat += float64(sign) * v.AsFloat()
		} else {
			a.sumInt += sign * v.Int()
			a.sumFloat += float64(sign) * v.AsFloat()
		}
	case plan.AggMin, plan.AggMax:
		if v.IsNull() {
			return nil
		}
		if a.v.IsNull() {
			a.v = v
			return nil
		}
		c, err := types.Compare(v, a.v)
		if err != nil {
			return err
		}
		if (agg.Kind == plan.AggMin && c < 0) || (agg.Kind == plan.AggMax && c > 0) {
			a.v = v
		}
	case plan.AggAnyValue:
		if a.v.IsNull() && !v.IsNull() {
			a.v = v
		}
	}
	return nil
}

// result returns agg's value over the values folded in.
func (a *accumulator) result(agg *plan.AggExpr) types.Value {
	switch agg.Kind {
	case plan.AggCount, plan.AggCountIf:
		return types.NewInt(a.count)
	case plan.AggSum:
		if a.count == 0 {
			return types.Null
		}
		if a.isFloat {
			return types.NewFloat(a.sumFloat)
		}
		return types.NewInt(a.sumInt)
	case plan.AggAvg:
		if a.count == 0 {
			return types.Null
		}
		return types.NewFloat(a.sumFloat / float64(a.count))
	case plan.AggMin, plan.AggMax, plan.AggAnyValue:
		return a.v
	default:
		return types.Null
	}
}
