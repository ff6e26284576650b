package ivm

import (
	"bytes"
	"slices"
	"strings"

	"dyntables/internal/delta"
	"dyntables/internal/exec"
	"dyntables/internal/plan"
	"dyntables/internal/types"
)

// The old side from the DT. Delayed view semantics make a DT's contents
// equal its defining query as of the start of the interval its next
// refresh covers. When the plan's top operator is an affected-key rule (a
// window, DISTINCT, or a grouped aggregate without stored accumulators)
// under at most a Project of bare columns that keeps the rule's key, the
// DT's rows of Δ's keys are therefore exactly the rule's old side,
// π(op(Q₀ ⋉ₖ ΔQ)). Delta never evaluates Q₀ ⋉ₖ ΔQ: it diffs the new side
// π(op(Q₁ ⋉ₖ ΔQ)) against the DT's stored rows of Δ's keys, key by key,
// and emits a deletion and an insertion only for a row ID whose rows
// differ or that one side lacks (rowDiff). That change set is
//
//	ConsolidateSigned(−(the DT's stored rows of Δ's keys) + π(op(Q₁ ⋉ₖ ΔQ)))
//
// in contents and in order, without building or sorting the rows that
// did not change; a window builds the output rows of the changed ones
// only. If a side repeats a row ID within a key, which a well-formed DT
// never does, the refresh consolidates that sum instead. The stored rows
// come through the DT table's own SelectiveLookupKeys on a key column, or
// from its whole version when the lookup declines or no key column is
// INT-family; either way they are restricted by the full key, as
// affectedKeys.boundary restricts a boundary. A plan whose key is not
// among the DT's columns, or an Env without the DT's table, takes the
// recompute rule.

// storedTop is a plan whose top affected-key rule reads its old side from
// the DT's stored rows.
type storedTop struct {
	// proj is the Project of bare columns over the rule, or nil, and cols
	// its columns' positions in the rule's rows.
	proj *plan.Project
	cols []int
	rule plan.Node
	// input is the rule's input, and keys its key over input's rows.
	input plan.Node
	keys  []plan.Expr
	// stored is the same key over the DT's rows; col, when ≥ 0, is a bare
	// INT-family column of it, and keyed its position in keys.
	stored []plan.Expr
	col    int
	keyed  int
}

// storedRule returns the stored form of n's top rule, or nil when the
// recompute rule applies.
func storedRule(n plan.Node, env *Env) *storedTop {
	if env.Stored == nil || env.Stored.Schema().Len() != n.Schema().Len() {
		return nil
	}
	t := &storedTop{rule: n, col: -1}
	if p, ok := n.(*plan.Project); ok {
		t.proj, t.rule = p, p.Input
	}
	// out is the key over the rule's output rows.
	var out []plan.Expr
	switch x := t.rule.(type) {
	case *plan.Window:
		if env.FullWindowRecompute {
			return nil
		}
		// A window's output row starts with its input row.
		t.input, t.keys, out = x.Input, x.PartitionBy, x.PartitionBy
	case *plan.Aggregate:
		if len(x.GroupBy) == 0 || env.Accumulators.state(x) != nil {
			return nil
		}
		// An aggregate's output row starts with its group's key values.
		t.input, t.keys, out = x.Input, x.GroupBy, rowKey(x)[:len(x.GroupBy)]
	case *plan.Distinct:
		t.input, t.keys, out = x.Input, rowKey(x.Input), rowKey(x)
	default:
		return nil
	}
	if t.stored = out; t.proj != nil {
		if t.cols, t.stored = projectKey(t.proj, out); t.stored == nil {
			return nil
		}
	}
	schema := env.Stored.Schema()
	for i, e := range t.stored {
		if c, ok := e.(*plan.ColIdx); ok && schema.Column(c.Idx).Kind.IntFamily() {
			t.col, t.keyed = c.Idx, i
			break
		}
	}
	return t
}

// projectKey returns the input positions of p's columns, and maps key
// expressions over p's input to bare columns of p's output. The key is nil
// when p is not a Project of bare columns or drops a key column.
func projectKey(p *plan.Project, key []plan.Expr) (cols []int, _ []plan.Expr) {
	at := make(map[int]int, len(p.Exprs))
	for j, e := range p.Exprs {
		c, ok := e.(*plan.ColIdx)
		if !ok {
			return nil, nil
		}
		cols = append(cols, c.Idx)
		if _, dup := at[c.Idx]; !dup {
			at[c.Idx] = j
		}
	}
	sc := p.Schema()
	out := make([]plan.Expr, len(key))
	for i, e := range key {
		c, ok := e.(*plan.ColIdx)
		if !ok {
			return nil, nil
		}
		j, kept := at[c.Idx]
		if !kept {
			return nil, nil
		}
		out[i] = &plan.ColIdx{Idx: j, Name: sc.Column(j).Name, Kind: sc.Column(j).Kind}
	}
	return cols, out
}

// delta differentiates the plan: the rule's new side over Δ's keys, under
// the Project, diffed against the DT's stored rows of those keys.
func (t *storedTop) delta(iv Interval, env *Env) (delta.ChangeSet, error) {
	if t.proj != nil {
		defer enter(t.proj, env)()
	}
	defer enter(t.rule, env)()
	din, err := deltaRec(t.input, iv, env)
	if err != nil || len(din) == 0 {
		// Empty, as consolidation returns it.
		return delta.ChangeSet{Changes: []delta.Change{}}, err
	}
	ak, err := affectedBy(t.input, t.keys, din, env)
	if err != nil {
		return delta.ChangeSet{}, err
	}
	// A window's new side stays in partitions, whose rows are built only
	// where they differ from the DT's; an aggregate's or DISTINCT's rows
	// are built, then projected.
	var parts []exec.WindowPartition
	var cur []exec.TRow
	switch x := t.rule.(type) {
	case *plan.Window:
		var in []exec.TRow
		if in, err = windowEnd(x, iv, ak, nil, env); err == nil {
			parts, err = exec.WindowPartitions(x, in, &exec.Context{Now: env.Now, Counters: env.Counters})
		}
	case *plan.Aggregate:
		env.stats(func(s *Stats) { s.GroupsRecomputed += int64(len(ak.keys)) })
		cur, _, err = aggregateAt(x, iv.To, ak, env)
		t.project(cur)
	case *plan.Distinct:
		cur, err = distinctAt(x, iv.To, ak, env)
		t.project(cur)
	}
	if err != nil {
		return delta.ChangeSet{}, err
	}
	// at numbers the affected keys. The new side has no rows of other
	// keys, and old skips the DT's.
	at := make(map[string]int32, len(ak.keys))
	for k := range ak.keys {
		at[k] = int32(len(at))
	}
	old, err := t.old(ak, at, din, env)
	if err != nil {
		return delta.ChangeSet{}, err
	}
	d := &rowDiff{}
	if _, ok := t.rule.(*plan.Window); ok {
		d.window(old, at, parts, t.cols)
	} else if err := t.diffRows(d, old, at, cur, env); err != nil {
		return delta.ChangeSet{}, err
	}
	return d.changeSet(old, func(out []delta.Change) []delta.Change {
		for _, p := range parts {
			for i := 0; i < p.Len(); i++ {
				out = append(out, delta.Change{RowID: p.ID(i), Action: delta.Insert, Row: p.Row(i, t.cols)})
			}
		}
		return appendAs(out, cur, delta.Insert)
	}, env), nil
}

// diffRows diffs an aggregate's or DISTINCT's new rows against the DT's
// rows old, grouping cur by the key at numbers.
func (t *storedTop) diffRows(d *rowDiff, old *storedRows, at map[string]int32, cur []exec.TRow, env *Env) error {
	ev := &plan.EvalContext{Now: env.Now}
	curAt := make([]int32, len(cur))
	var key []byte
	for i, tr := range cur {
		var err error
		if key, err = exec.AppendKey(key[:0], t.stored, tr.Row, ev); err != nil {
			return err
		}
		g, ok := at[string(key)]
		if !ok {
			// Not an affected key's row: leave it to consolidation.
			d.fallback = true
			return nil
		}
		curAt[i] = g
	}
	d.rows(old, cur, curAt)
	return nil
}

// project applies the Project of bare columns to the rule's rows in place.
func (t *storedTop) project(rows []exec.TRow) {
	if t.cols == nil {
		return
	}
	for i := range rows {
		row := make(types.Row, len(t.cols))
		for j, c := range t.cols {
			row[j] = rows[i].Row[c]
		}
		rows[i].Row = row
	}
}

// old returns the DT's stored rows whose key is one of ak's, by their
// key's number in at. It looks the keyed column's values over Δ's rows up
// in the DT's table, which returns a superset of those rows (NULLs and
// values of another kind come back whatever the keys), or reads the whole
// version when the lookup declines.
func (t *storedTop) old(ak *affectedKeys, at map[string]int32, din []delta.Change, env *Env) (*storedRows, error) {
	if env.Span != nil {
		defer env.Span("ivm.stored")()
	}
	ev := &plan.EvalContext{Now: env.Now}
	var b *types.Batch
	ok := false
	if t.col >= 0 {
		kind := env.Stored.Schema().Column(t.col).Kind
		seen := make(map[int64]bool)
		var keys []int64
		for _, c := range din {
			v, err := plan.Eval(t.keys[t.keyed], c.Row, ev)
			if err != nil {
				return nil, err
			}
			// An integral FLOAT groups with the INT of its value, as in
			// affectedLookup.
			if v = exec.NormalizeKeyValue(v); v.Kind() == kind && !seen[v.IntPayload()] {
				seen[v.IntPayload()] = true
				keys = append(keys, v.IntPayload())
			}
		}
		var err error
		if b, ok, err = env.Stored.SelectiveLookupKeys(env.StoredSeq, t.col, keys); err != nil {
			return nil, err
		}
	}
	if !ok {
		var err error
		if b, err = env.Stored.Batch(env.StoredSeq); err != nil {
			return nil, err
		}
	}
	env.stats(func(s *Stats) {
		s.OldSidesStored++
		s.StoredRowsRead += int64(b.Len())
	})
	// The DT's rows read count as scanned, as the start boundary's would.
	if c := env.Counters; c != nil {
		c.ScanCalls++
		c.ScanRows += int64(b.Len())
		c.ScanBytes += b.ApproxBytes()
	}
	rows := b.Rows()
	keys := make([]int32, len(rows))
	var key []byte
	for i, row := range rows {
		var err error
		if key, err = exec.AppendKey(key[:0], t.stored, row, ev); err != nil {
			return nil, err
		}
		if g, ok := at[string(key)]; ok {
			keys[i] = g
		} else {
			keys[i] = -1
		}
	}
	return newStoredRows(b.IDs(), rows, keys, len(at)), nil
}

// storedRows are the DT's stored rows of the affected keys, laid out by
// key, beside the version's rows in the DT's order.
type storedRows struct {
	byKey
	// ids and rows are the version's rows, and keys each one's key
	// number, or -1 for a row of no affected key.
	ids  []string
	rows []types.Row
	keys []int32
}

// newStoredRows lays the rows of keys ≥ 0 out by key, of n keys.
func newStoredRows(ids []string, rows []types.Row, keys []int32, n int) *storedRows {
	return &storedRows{
		byKey: groupByKey(keys, n, func(i int) exec.TRow { return exec.TRow{ID: ids[i], Row: rows[i]} }),
		ids:   ids, rows: rows, keys: keys,
	}
}

// appendDeletions appends the affected keys' rows as deletions, in the
// DT's order.
func (s *storedRows) appendDeletions(out []delta.Change) []delta.Change {
	for i, g := range s.keys {
		if g >= 0 {
			out = append(out, delta.Change{RowID: s.ids[i], Action: delta.Delete, Row: s.rows[i]})
		}
	}
	return out
}

// byKey is rows laid out by key: key g's rows are all[start[g]:start[g+1]],
// each key's in their order.
type byKey struct {
	all   []exec.TRow
	start []int32
}

// of returns key g's rows.
func (b byKey) of(g int) []exec.TRow { return b.all[b.start[g]:b.start[g+1]] }

// groupByKey lays out row(i) for each i by its key number keys[i] below
// n, skipping the rows whose key is -1.
func groupByKey(keys []int32, n int, row func(i int) exec.TRow) byKey {
	start := make([]int32, n+1)
	for _, g := range keys {
		if g >= 0 {
			start[g+1]++
		}
	}
	for g := range n {
		start[g+1] += start[g]
	}
	next := slices.Clone(start[:n])
	all := make([]exec.TRow, start[n])
	for i, g := range keys {
		if g >= 0 {
			all[next[g]] = row(i)
			next[g]++
		}
	}
	return byKey{all, start}
}

// rowDiff builds a rule's change set key by key from the DT's stored rows
// of a key and the rule's new rows of it. It matches the two sides by row
// ID, and emits a deletion and an insertion only where the rows differ or
// a row ID is on one side only. Rows differ as ConsolidateSigned tells
// them apart, by their types.Row.EncodeKey encodings (types.Row.KeyEqual).
// A row's key is a function of the row, so rows of two keys always
// differ, and the change set is ConsolidateSigned(−old ++ new), in
// contents and in order, as long as neither side repeats a row ID within a
// key. A key that does sets fallback, and so does a new row of a key that
// is not an affected one; changeSet then consolidates instead.
type rowDiff struct {
	// ids maps the current key's row IDs to their old row's index, or to
	// -1 for a row ID only a new row has; matched marks the old rows a new
	// row has.
	ids     map[string]int32
	matched []bool
	// emitted holds one entry per row ID a key emitted, ins the rows
	// inserted, and dels counts the rows deleted.
	emitted []emitted
	ins     []types.Row
	dels    int
	// newRows counts the new rows diffed.
	newRows  int64
	fallback bool
}

// emitted is a row ID a key emitted: the stored row it deletes, or nil,
// and the position in ins of the row it inserts, or -1.
type emitted struct {
	id  string
	old *exec.TRow
	ins int32
}

// newSide is one key's new rows.
type newSide interface {
	Len() int
	ID(i int) string
	// KeyEqual reports whether row i has the encoding of row.
	KeyEqual(i int, row types.Row) bool
	// Row builds row i.
	Row(i int) types.Row
}

// trows is a key's new rows, built.
type trows []exec.TRow

func (r trows) Len() int                           { return len(r) }
func (r trows) ID(i int) string                    { return r[i].ID }
func (r trows) KeyEqual(i int, row types.Row) bool { return r[i].Row.KeyEqual(row) }
func (r trows) Row(i int) types.Row                { return r[i].Row }

// partSide is a window partition's rows, projected to cols.
type partSide struct {
	p    *exec.WindowPartition
	cols []int
}

func (s partSide) Len() int                           { return s.p.Len() }
func (s partSide) ID(i int) string                    { return s.p.ID(i) }
func (s partSide) KeyEqual(i int, row types.Row) bool { return s.p.KeyEqual(i, s.cols, row) }
func (s partSide) Row(i int) types.Row                { return s.p.Row(i, s.cols) }

// rows diffs new rows cur against the stored rows old, given each new
// row's key number.
func (d *rowDiff) rows(old *storedRows, cur []exec.TRow, curAt []int32) {
	n := len(old.start) - 1
	news := groupByKey(curAt, n, func(i int) exec.TRow { return cur[i] })
	for g := range n {
		d.key(old.of(g), trows(news.of(g)))
	}
}

// window diffs a window's partitions against the stored rows old, whose
// keys at numbers.
func (d *rowDiff) window(old *storedRows, at map[string]int32, parts []exec.WindowPartition, cols []int) {
	seen := make([]bool, len(at))
	for i := range parts {
		g, ok := at[parts[i].Key]
		if !ok {
			// Not an affected key's partition: leave it to consolidation.
			d.fallback = true
			return
		}
		seen[g] = true
		d.key(old.of(int(g)), partSide{&parts[i], cols})
	}
	for g, ok := range seen {
		if !ok {
			d.key(old.of(g), trows(nil))
		}
	}
}

// key diffs one key's old rows against its new rows.
func (d *rowDiff) key(old []exec.TRow, cur newSide) {
	n := cur.Len()
	d.newRows += int64(n)
	if d.fallback {
		return
	}
	if len(old) <= 1 && n <= 1 {
		// Neither side can repeat a row ID.
		if len(old) == 1 && n == 1 && old[0].ID == cur.ID(0) {
			if !cur.KeyEqual(0, old[0].Row) {
				d.emit(&old[0], cur, 0)
			}
			return
		}
		for i := range old {
			d.emit(&old[i], nil, 0)
		}
		for j := range n {
			d.emit(nil, cur, j)
		}
		return
	}
	if d.ids == nil {
		d.ids = make(map[string]int32)
	}
	for i, o := range old {
		// An assignment that does not grow the map found the row ID.
		size := len(d.ids)
		if d.ids[o.ID] = int32(i); len(d.ids) == size {
			d.fallback = true
			return
		}
	}
	matched := slices.Grow(d.matched[:0], len(old))[:len(old)]
	clear(matched)
	d.matched = matched
	for j := range n {
		id := cur.ID(j)
		i, ok := d.ids[id]
		switch {
		case !ok:
			d.ids[id] = -1
			d.emit(nil, cur, j)
		case i < 0 || matched[i]:
			d.fallback = true
			return
		default:
			matched[i] = true
			if !cur.KeyEqual(j, old[i].Row) {
				d.emit(&old[i], cur, j)
			}
		}
	}
	for i := range old {
		if !matched[i] {
			d.emit(&old[i], nil, 0)
		}
	}
	// A cleared map keeps its capacity, and clearing costs that much: one
	// large key's map is dropped rather than cleared for every later key.
	if len(d.ids) > 256 {
		d.ids = nil
	} else {
		clear(d.ids)
	}
}

// emit records a deletion of old, when non-nil, and an insertion of cur's
// row j, when cur is non-nil, as one emitted row ID.
func (d *rowDiff) emit(old *exec.TRow, cur newSide, j int) {
	e := emitted{old: old, ins: -1}
	if old != nil {
		e.id = old.ID
		d.dels++
	}
	if cur != nil {
		e.id, e.ins = cur.ID(j), int32(len(d.ins))
		d.ins = append(d.ins, cur.Row(j))
	}
	d.emitted = append(d.emitted, e)
}

// changeSet returns the diff's change set: the deletions, then the
// insertions, each sorted as ConsolidateSigned sorts them. On fallback it
// returns ConsolidateSigned(−old ++ new) instead, with appendNew appending
// the new rows in the rule's order.
func (d *rowDiff) changeSet(old *storedRows, appendNew func([]delta.Change) []delta.Change, env *Env) delta.ChangeSet {
	if d.fallback {
		out := make([]delta.Change, 0, int64(len(old.all))+d.newRows)
		out = appendNew(old.appendDeletions(out))
		env.stats(func(s *Stats) { s.RowsEmitted += int64(len(out)) })
		return delta.ChangeSet{Changes: out}.ConsolidateSigned()
	}
	out := d.sorted()
	env.stats(func(s *Stats) {
		s.RowsEmitted += int64(len(out))
		s.RowsDiffed += int64(len(old.all)) + d.newRows
	})
	return delta.ChangeSet{Changes: out}
}

// sorted returns the deletions sorted by row ID, then the insertions.
func (d *rowDiff) sorted() []delta.Change {
	slices.SortFunc(d.emitted, func(a, b emitted) int { return strings.Compare(a.id, b.id) })
	out := make([]delta.Change, 0, d.dels+len(d.ins))
	for _, e := range d.emitted {
		if e.old != nil {
			out = append(out, delta.Change{RowID: e.id, Action: delta.Delete, Row: e.old.Row})
		}
	}
	for _, e := range d.emitted {
		if e.ins >= 0 {
			out = append(out, delta.Change{RowID: e.id, Action: delta.Insert, Row: d.ins[e.ins]})
		}
	}
	for k := 1; k < len(d.emitted); k++ {
		if d.emitted[k].id == d.emitted[k-1].id {
			// A row ID emitted by two keys has rows that differ; its
			// deletions and its insertions each sort by their encodings.
			sortChanges(out[:d.dels])
			sortChanges(out[d.dels:])
			break
		}
	}
	return out
}

// sortChanges sorts changes of one action by row ID, and changes of one
// row ID, which come from different keys, by their rows' encodings.
func sortChanges(cs []delta.Change) {
	slices.SortFunc(cs, func(a, b delta.Change) int {
		if c := strings.Compare(a.RowID, b.RowID); c != 0 {
			return c
		}
		return bytes.Compare(a.Row.EncodeKey(nil), b.Row.EncodeKey(nil))
	})
}
