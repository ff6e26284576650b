package exec

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"dyntables/internal/plan"
	"dyntables/internal/types"
)

// FuzzGroupTable checks the group table against a naive reference that
// sorts rows by their normalized key encodings and scans the runs: no
// hashing and no groupTable. Every path through the table must give the
// reference's groups, in first-seen order, with its row IDs and rows:
// aggregateBatch with and without the affected-group restriction,
// AggregateRows, DistinctRows, and a sequence of GroupState Adds and
// Folds, whose changes and representability (ok) must match.
//
// The checked-in seeds catch these mutants of the kernel, each tried
// alone in a scratch copy:
//   - accumulator.fold folds every COUNT twice;
//   - groupTable.find ignores the typed index's kind, so INT 1 and
//     TIMESTAMP 1 share a group;
//   - Fold's log takes the Old row of a group the row starts.
func FuzzGroupTable(f *testing.F) {
	// One INT key, every aggregate, NULL keys and a FLOAT 1.0 that
	// switches the typed index to the encoded one mid-batch.
	f.Add([]byte{0x01, 0xff, 0x02, 1, 0, 1, 1, 0, 2, 1, 2, 2, 1, 0, 2, 3, 0, 0, 1, 1, 0, 3, 3, 1})
	// Two keys: a FLOAT key with 0.0 and -0.0, and the mixed domain.
	f.Add([]byte{0x0a, 0x3f, 0x06, 1, 1, 1, 1, 0, 3, 2, 2, 2, 1, 4, 1, 3, 0, 0, 2, 0, 3, 4, 5, 2, 1, 2, 1})
	// A STRING key; wrapping INT sums folded in and out over four steps.
	f.Add([]byte{0x11, 0x1b, 0x15, 1, 0, 1, 1, 2, 2, 1, 2, 0, 1, 3, 3, 1, 3, 0, 0, 4, 4, 1, 1, 1, 2, 2, 0, 1, 3, 4, 2, 3, 1, 0})
	// The mixed key domain (INT 1 beside FLOAT 1.0, TIMESTAMP 1 and
	// variants), and x from it too, so that SUM and MIN fail to compare.
	f.Add([]byte{0x0d, 0x7f, 0x0b, 1, 2, 3, 1, 4, 5, 6, 7, 8, 9, 10, 11, 12, 2, 3, 1, 0, 1, 5, 4, 3, 2, 1, 0, 0, 0})
	// INT 1 and then TIMESTAMP 1 under one key: the typed index must
	// not merge them.
	f.Add([]byte{0x0d, 0x01, 0x00, 1, 0, 0, 0, 0, 3, 0, 0, 0, 0, 1, 0, 0, 0, 0})
	// A global aggregate over no rows.
	f.Add([]byte{0x00, 0x01, 0x00})
	// A group emptied by one Fold and started again by the next, with a
	// FLOAT SUM argument that makes the state unrepresentable at the end.
	f.Add([]byte{0x01, 0x13, 0x12, 1, 0, 1, 1, 1, 1, 0, 2, 1, 2, 2, 1, 3, 1, 1, 1, 0, 2, 0, 3, 0, 1, 1, 2, 3, 1, 0, 2, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		g := decodeGroupFuzz(data)
		rows := g.tagged()

		want, wantErr := refAggregate(g.agg, g.rows, nil)
		got, err := AggregateRows(g.agg, rows, &Context{})
		sameGroups(t, "AggregateRows", got, err, want, wantErr)

		in := &batchRes{b: types.NewBatch(g.schema(), g.ids(), g.rows)}
		got, err = aggregateBatch(g.agg, in, nil, &Context{})
		sameGroups(t, "aggregateBatch", got, err, want, wantErr)

		affected := g.affected()
		want, wantErr = refAggregate(g.agg, g.rows, affected)
		got, err = aggregateBatch(g.agg, in, affected, &Context{})
		sameGroups(t, "aggregateBatch (affected)", got, err, want, wantErr)

		got, err = DistinctRows(rows)
		sameGroups(t, "DistinctRows", got, err, refDistinct(g.rows), nil)

		g.checkFolds(t)
	})
}

// Value domains a fuzzed row draws from, beside join_test.go's key
// domains: STRING keys, small and wrapping INTs, numbers of both kinds,
// and COUNT_IF arguments.
var (
	strKeys   = []types.Value{types.Null, types.NewString(""), types.NewString("a"), types.NewString("b"), types.NewString("ab")}
	smallInts = []types.Value{types.Null, types.NewInt(-2), types.NewInt(0), types.NewInt(1), types.NewInt(5)}
	wideInts  = []types.Value{types.Null, types.NewInt(1<<62 + 1), types.NewInt(-1 << 62), types.NewInt(1<<63 - 1), types.NewInt(3)}
	numbers   = []types.Value{types.Null, types.NewInt(1), types.NewFloat(1), types.NewFloat(0.5), types.NewInt(-3), types.NewFloat(negZero())}
	bools     = []types.Value{types.Null, types.NewBool(true), types.NewBool(false), types.NewInt(1)}

	groupKeyDomains = [][]types.Value{intKeys, tsKeys, floatKeys, mixedKeys, strKeys}
	argDomains      = [][]types.Value{smallInts, wideInts, numbers, mixedKeys}
)

// fuzzAggs are the aggregates a fuzzed table draws from, over rows
// (k1, k2, x, b). The first four are the invertible ones a GroupState
// folds.
var fuzzAggs = []plan.AggExpr{
	{Kind: plan.AggCount},
	{Kind: plan.AggCount, Arg: fuzzCol(2)},
	{Kind: plan.AggCountIf, Arg: fuzzCol(3)},
	{Kind: plan.AggSum, Arg: fuzzCol(2)},
	{Kind: plan.AggCount, Arg: fuzzCol(2), Distinct: true},
	{Kind: plan.AggMin, Arg: fuzzCol(2)},
	{Kind: plan.AggMax, Arg: fuzzCol(2)},
	{Kind: plan.AggAvg, Arg: fuzzCol(2)},
}

// fuzzCol references column i of a fuzzed row.
func fuzzCol(i int) plan.Expr {
	return &plan.ColIdx{Idx: i, Name: []string{"k1", "k2", "x", "b"}[i], Kind: types.KindVariant}
}

// groupFuzz is a decoded fuzz input: rows (k1, k2, x, b), an aggregate
// over them, and each row's lifetime in the Fold sequence.
type groupFuzz struct {
	agg   *plan.Aggregate
	fold  *plan.Aggregate
	rows  []types.Row
	life  []int
	chunk int
	seed  bool
	pick  byte
}

// decodeGroupFuzz decodes fuzz input. data[0] picks 0, 1 or 2 keys (bits
// 0–1) and k1's domain (bits 2–4); data[1] is a mask over fuzzAggs;
// data[2] picks x's domain (bits 0–1), how many rows each Fold inserts
// (bits 2–3), whether the first chunk is added with Add (bit 4) and
// which groups the affected restriction keeps (bits 5–7). Then each row
// takes five bytes: k1, k2 (mixed domain), x, b and how many Folds it
// lives for (0: for good).
func decodeGroupFuzz(data []byte) *groupFuzz {
	for len(data) < 3 {
		data = append(data, 0)
	}
	nk := int(data[0]&3) % 3
	kd := groupKeyDomains[int(data[0]>>2&7)%len(groupKeyDomains)]
	xd := argDomains[data[2]&3]
	g := &groupFuzz{chunk: 1 + int(data[2]>>2&3), seed: data[2]&16 != 0, pick: data[2] >> 5}
	g.agg = &plan.Aggregate{}
	g.fold = &plan.Aggregate{}
	for k := 0; k < nk; k++ {
		g.agg.GroupBy = append(g.agg.GroupBy, fuzzCol(k))
	}
	g.fold.GroupBy = g.agg.GroupBy
	if len(g.fold.GroupBy) == 0 {
		g.fold.GroupBy = []plan.Expr{fuzzCol(0)}
	}
	for i, agg := range fuzzAggs {
		if data[1]>>i&1 == 1 {
			g.agg.Aggs = append(g.agg.Aggs, agg)
			if i < 4 {
				g.fold.Aggs = append(g.fold.Aggs, agg)
			}
		}
	}
	if len(g.fold.Aggs) == 0 {
		g.fold.Aggs = fuzzAggs[:1]
	}
	raw := data[3:]
	if len(raw) > 5*32 {
		raw = raw[:5*32]
	}
	at := func(d []types.Value, b byte) types.Value { return d[int(b)%len(d)] }
	for i := 0; i+5 <= len(raw); i += 5 {
		g.rows = append(g.rows, types.Row{at(kd, raw[i]), at(mixedKeys, raw[i+1]), at(xd, raw[i+2]), at(bools, raw[i+3])})
		g.life = append(g.life, int(raw[i+4]%4))
	}
	return g
}

func (g *groupFuzz) schema() types.Schema {
	return types.NewSchema(
		types.Column{Name: "k1", Kind: types.KindVariant},
		types.Column{Name: "k2", Kind: types.KindVariant},
		types.Column{Name: "x", Kind: types.KindVariant},
		types.Column{Name: "b", Kind: types.KindVariant})
}

func (g *groupFuzz) ids() []string {
	ids := make([]string, len(g.rows))
	for i := range ids {
		ids[i] = fmt.Sprintf("r%d", i)
	}
	return ids
}

func (g *groupFuzz) tagged() []TRow {
	out := make([]TRow, len(g.rows))
	for i, id := range g.ids() {
		out[i] = TRow{ID: id, Row: g.rows[i]}
	}
	return out
}

// refKey is the reference's group key of key values: their normalized
// encoding.
func refKey(vals types.Row) string {
	var buf []byte
	for _, v := range vals {
		buf = NormalizeKeyValue(v).EncodeKey(buf)
	}
	return string(buf)
}

// keyVals evaluates a's key columns over row.
func keyVals(a *plan.Aggregate, row types.Row) types.Row {
	out := make(types.Row, len(a.GroupBy))
	for i, e := range a.GroupBy {
		out[i] = row[e.(*plan.ColIdx).Idx]
	}
	return out
}

// affected keeps the keys of some of the rows' groups, chosen by the
// input, and one key no row has.
func (g *groupFuzz) affected() map[string]bool {
	out := map[string]bool{refKey(types.Row{types.NewString("none")}): true}
	for i, row := range g.rows {
		if g.pick>>(i%3)&1 == 1 {
			out[refKey(keyVals(g.agg, row))] = true
		}
	}
	return out
}

// refGroups groups rows by key: a stable sort of the row positions by
// their keys, then one scan for the runs of equal keys. It returns each
// group's row positions in input order, the groups in the order of their
// first rows.
func refGroups(keys []string) [][]int {
	order := make([]int, len(keys))
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int { return bytes.Compare([]byte(keys[a]), []byte(keys[b])) })
	var groups [][]int
	for i := 0; i < len(order); {
		j := i
		for j < len(order) && keys[order[j]] == keys[order[i]] {
			j++
		}
		groups = append(groups, order[i:j])
		i = j
	}
	slices.SortFunc(groups, func(a, b []int) int { return a[0] - b[0] })
	return groups
}

// refAggregate aggregates rows by a's keys, keeping only the rows whose
// key affected holds when it is non-nil.
func refAggregate(a *plan.Aggregate, rows []types.Row, affected map[string]bool) ([]TRow, error) {
	var kept []types.Row
	var keys []string
	for _, row := range rows {
		k := refKey(keyVals(a, row))
		if affected == nil || affected[k] {
			kept, keys = append(kept, row), append(keys, k)
		}
	}
	groups := refGroups(keys)
	if len(groups) == 0 && len(a.GroupBy) == 0 {
		groups = [][]int{nil}
	}
	var out []TRow
	for _, grp := range groups {
		var key types.Row
		id := GroupRowID("")
		if len(grp) > 0 {
			key = keyVals(a, kept[grp[0]])
			id = GroupRowID(keys[grp[0]])
		}
		row := slices.Clone(key)
		for _, agg := range a.Aggs {
			args := make([]types.Value, len(grp))
			if agg.Arg != nil {
				for i, r := range grp {
					args[i] = kept[r][agg.Arg.(*plan.ColIdx).Idx]
				}
			}
			v, err := refAgg(agg, args)
			if err != nil {
				return nil, err
			}
			row = append(row, v)
		}
		out = append(out, TRow{ID: id, Row: row})
	}
	return out, nil
}

// refAgg computes agg over one group's argument values, in input order.
func refAgg(agg plan.AggExpr, args []types.Value) (types.Value, error) {
	var nonNull []types.Value
	for _, v := range args {
		if !v.IsNull() || agg.Arg == nil {
			nonNull = append(nonNull, v)
		}
	}
	switch agg.Kind {
	case plan.AggCount:
		if agg.Distinct && agg.Arg != nil {
			var keys []string
			for _, v := range nonNull {
				keys = append(keys, refKey(types.Row{v}))
			}
			return types.NewInt(int64(len(refGroups(keys)))), nil
		}
		return types.NewInt(int64(len(nonNull))), nil
	case plan.AggCountIf:
		n := 0
		for _, v := range nonNull {
			if v.Kind() == types.KindBool && v.Bool() {
				n++
			}
		}
		return types.NewInt(int64(n)), nil
	case plan.AggSum, plan.AggAvg:
		var isum int64
		var fsum float64
		float := false
		for _, v := range nonNull {
			switch v.Kind() {
			case types.KindInt:
				isum += v.Int()
				fsum += float64(v.Int())
			case types.KindFloat:
				fsum += v.Float()
				float = true
			default:
				return types.Null, fmt.Errorf("%s of %s", agg.Kind, v.Kind())
			}
		}
		switch {
		case len(nonNull) == 0:
			return types.Null, nil
		case agg.Kind == plan.AggAvg:
			return types.NewFloat(fsum / float64(len(nonNull))), nil
		case float:
			return types.NewFloat(fsum), nil
		}
		return types.NewInt(isum), nil
	case plan.AggMin, plan.AggMax:
		cur := types.Null
		for _, v := range nonNull {
			if cur.IsNull() {
				cur = v
				continue
			}
			c, err := types.Compare(v, cur)
			if err != nil {
				return types.Null, err
			}
			if (agg.Kind == plan.AggMin && c < 0) || (agg.Kind == plan.AggMax && c > 0) {
				cur = v
			}
		}
		return cur, nil
	}
	return types.Null, fmt.Errorf("reference: no %s", agg.Kind)
}

// refDistinct keeps each value's first row.
func refDistinct(rows []types.Row) []TRow {
	keys := make([]string, len(rows))
	for i, row := range rows {
		keys[i] = refKey(row)
	}
	var out []TRow
	for _, grp := range refGroups(keys) {
		out = append(out, TRow{ID: DistinctRowID(keys[grp[0]]), Row: rows[grp[0]]})
	}
	return out
}

// sameGroups reports the first difference between a path's groups and the
// reference's; only whether each failed must agree.
func sameGroups(t *testing.T, label string, got []TRow, err error, want []TRow, wantErr error) {
	t.Helper()
	if (err != nil) != (wantErr != nil) {
		t.Fatalf("%s: error %v, want %v", label, err, wantErr)
	}
	if err != nil {
		return
	}
	sameRows(t, label, got, want)
}

// checkFolds runs the rows through a GroupState of the invertible
// aggregates, chunk rows inserted per step and each row deleted life
// steps after it went in, and checks each step's changes and ok against
// the reference over the input before and after the step.
func (g *groupFuzz) checkFolds(t *testing.T) {
	a := g.fold
	s := NewGroupState(a)
	var live []int // positions of the rows in the input, in insertion order
	born := map[int]int{}
	// raw tracks each group's raw key encoding and row count as the
	// state's rows go in and out, in fold order.
	type rawGroup struct {
		raw  string
		rows int
	}
	groups := map[string]*rawGroup{}
	dying := func() bool {
		return slices.ContainsFunc(live, func(r int) bool { return g.life[r] > 0 })
	}
	for step, next := 0, 0; next < len(g.rows) || dying(); step++ {
		var deleted, inserted []int
		var kept []int
		for _, r := range live {
			if g.life[r] > 0 && born[r]+g.life[r] == step {
				deleted = append(deleted, r)
			} else {
				kept = append(kept, r)
			}
		}
		for ; next < len(g.rows) && len(inserted) < g.chunk; next++ {
			inserted = append(inserted, next)
			born[next] = step
		}
		if len(deleted) == 0 && len(inserted) == 0 {
			continue
		}

		// The reference's verdict: rows fold in order, deleted first.
		wantOK, wantErr := true, false
		fold := func(rs []int, sign int) {
			for _, r := range rs {
				if !wantOK || wantErr {
					return
				}
				kv := keyVals(a, g.rows[r])
				k, raw := refKey(kv), string(kv.EncodeKey(nil))
				grp := groups[k]
				if grp == nil {
					grp = &rawGroup{}
					groups[k] = grp
				}
				if grp.rows > 0 && grp.raw != raw || sign < 0 && grp.rows == 0 {
					wantOK = false
					return
				}
				grp.raw = raw
				for _, agg := range a.Aggs {
					if agg.Kind != plan.AggSum {
						continue
					}
					switch x := g.rows[r][2]; {
					case x.IsNull():
					case !x.Kind().IntFamily():
						wantOK = false
						return
					case x.Kind() != types.KindInt:
						wantErr = true
						return
					}
				}
				grp.rows += sign
			}
		}
		before := slices.Clone(live)
		fold(deleted, -1)
		fold(inserted, 1)
		live = append(kept, inserted...)

		tag := func(rs []int) []TRow {
			out := make([]TRow, len(rs))
			for i, r := range rs {
				out[i] = TRow{ID: fmt.Sprintf("r%d", r), Row: g.rows[r]}
			}
			return out
		}
		if step == 0 && g.seed {
			ok, err := s.Add(tag(inserted), &Context{})
			if (err != nil) != wantErr || ok != (wantOK && !wantErr) {
				t.Fatalf("Add of step 0: ok %v, error %v; want ok %v, error %v", ok, err, wantOK, wantErr)
			}
		} else {
			changes, ok, err := s.Fold(tag(deleted), tag(inserted), &Context{})
			if (err != nil) != wantErr || ok != (wantOK && !wantErr) {
				t.Fatalf("Fold of step %d: ok %v, error %v; want ok %v, error %v", step, ok, err, wantOK, wantErr)
			}
			if ok {
				sameChanges(t, step, changes, g.refChanges(before, live, deleted, inserted))
			}
		}
		if !wantOK || wantErr {
			return
		}
	}
}

// refChanges is the reference's Fold result: the groups of the deleted
// and then the inserted rows in first-touched order, each with its row
// over the input before and after.
func (g *groupFuzz) refChanges(before, after, deleted, inserted []int) []GroupChange {
	a := g.fold
	rowsOf := func(rs []int) []types.Row {
		out := make([]types.Row, len(rs))
		for i, r := range rs {
			out[i] = g.rows[r]
		}
		return out
	}
	byKey := func(rs []int) map[string]types.Row {
		res, err := refAggregate(a, rowsOf(rs), nil)
		if err != nil {
			panic(err)
		}
		out := map[string]types.Row{}
		for _, tr := range res {
			out[tr.ID] = tr.Row
		}
		return out
	}
	old, cur := byKey(before), byKey(after)
	var out []GroupChange
	seen := map[string]bool{}
	for _, r := range append(slices.Clone(deleted), inserted...) {
		id := GroupRowID(refKey(keyVals(a, g.rows[r])))
		if !seen[id] {
			seen[id] = true
			out = append(out, GroupChange{ID: id, Old: old[id], New: cur[id]})
		}
	}
	return out
}

// sameChanges reports the first difference between two Folds' changes.
func sameChanges(t *testing.T, step int, got, want []GroupChange) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("Fold of step %d: %d changes, want %d:\n got %v\nwant %v", step, len(got), len(want), got, want)
	}
	same := func(a, b types.Row) bool { return (a == nil) == (b == nil) && a.KeyEqual(b) }
	for i := range got {
		if got[i].ID != want[i].ID || !same(got[i].Old, want[i].Old) || !same(got[i].New, want[i].New) {
			t.Fatalf("Fold of step %d: change %d = %s %v → %v, want %s %v → %v",
				step, i, got[i].ID, got[i].Old, got[i].New, want[i].ID, want[i].Old, want[i].New)
		}
	}
}
