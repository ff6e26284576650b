package ivm

import (
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
// π(op(Q₀ ⋉ₖ ΔQ)). Delta then emits
//
//	−(the DT's stored rows of Δ's keys) + π(op(Q₁ ⋉ₖ ΔQ))
//
// and never evaluates Q₀ ⋉ₖ ΔQ. The stored rows come through the DT
// table's own SelectiveLookupKeys on a key column, or from its whole
// version when the lookup declines or no key column is INT-family; either
// way they are restricted by the full key, as affectedKeys.boundary
// restricts a boundary. A plan whose key is not among the DT's columns, or
// an Env without the DT's table, takes the recompute rule.

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
// the Project, against the DT's stored rows of those keys.
func (t *storedTop) delta(iv Interval, env *Env) ([]delta.Change, error) {
	if t.proj != nil {
		defer enter(t.proj, env)()
	}
	defer enter(t.rule, env)()
	din, err := deltaRec(t.input, iv, env)
	if err != nil || len(din) == 0 {
		return nil, err
	}
	ak, err := affectedBy(t.input, t.keys, din, env)
	if err != nil {
		return nil, err
	}
	var cur []exec.TRow
	switch x := t.rule.(type) {
	case *plan.Window:
		// The window builds its rows projected.
		cur, err = windowEnd(x, iv, ak, nil, t.cols, env)
	case *plan.Aggregate:
		env.stats(func(s *Stats) { s.GroupsRecomputed += int64(len(ak.keys)) })
		cur, _, err = aggregateAt(x, iv.To, ak, env)
		t.project(cur)
	case *plan.Distinct:
		cur, err = distinctAt(x, iv.To, ak, env)
		t.project(cur)
	}
	if err != nil {
		return nil, err
	}
	old, err := t.old(ak, din, env)
	if err != nil {
		return nil, err
	}
	out := make([]delta.Change, 0, len(old)+len(cur))
	out = appendAs(out, old, delta.Delete)
	return appendAs(out, cur, delta.Insert), nil
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

// old returns the DT's stored rows whose key is one of ak's. It looks the
// keyed column's values over Δ's rows up in the DT's table, which returns
// a superset of those rows (NULLs and values of another kind come back
// whatever the keys), or reads the whole version when the lookup declines.
func (t *storedTop) old(ak *affectedKeys, din []delta.Change, env *Env) ([]exec.TRow, error) {
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
	ids, rows := b.IDs(), b.Rows()
	var key []byte
	out := make([]exec.TRow, 0, len(rows))
	for i, row := range rows {
		var err error
		if key, err = exec.AppendKey(key[:0], t.stored, row, ev); err != nil {
			return nil, err
		}
		if ak.keys[string(key)] {
			out = append(out, exec.TRow{ID: ids[i], Row: row})
		}
	}
	return out, nil
}
