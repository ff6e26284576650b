package ivm

import (
	"dyntables/internal/delta"
	"dyntables/internal/exec"
	"dyntables/internal/plan"
	"dyntables/internal/types"
)

// Affected keys and keyed boundaries. The affected-key rules
// (deltaAggregate, deltaDistinct, deltaWindow) evaluate their input at
// both interval boundaries but keep only the rows of the keys Δ touches
// (affectedKeys). When the input is a Scan→Filter→Project chain and one
// key is a column of its scan, the scan can read just the rows whose value
// of that column is one of Δ's, through the storage row-log index, instead
// of the whole version. The restriction by the full key still runs over
// what the scan returns, so the lookup only has to return a superset of
// the affected keys' rows: rows whose column is NULL or of another kind
// come back whatever the keys, and a lookup that would read more than a
// share of the version declines to a scan. Candidates come back in log
// order, as the scan returns them, so the change sets are the same either
// way.
//
// An inner join's bilinear terms read the other side the same way
// (deltaInnerJoin): ΔQ⋈R₁ evaluates R₁ over the rows whose right key can
// equal one of ΔQ's left keys, and Q₀⋈ΔR evaluates Q₀ over the rows whose
// left key can equal one of ΔR's right keys. The join itself then matches
// the full keys; the rows it drops are rows it would not have matched.

// keyedLookups turns the keyed path on. Only tests turn it off, to
// compare the change sets with the scan path's byte for byte: the row path
// is no reference for that, because it reads rows in map order and a group
// takes its key values from its first row.
var keyedLookups = true

// affectedKeys restricts the input of an affected-key rule to the rows
// whose key under exprs is one of Δ's.
type affectedKeys struct {
	exprs []plan.Expr
	// keys are the encoded keys (exec.EvalKey) of Δ's rows; nil keeps
	// every row.
	keys map[string]bool
	// lk, when non-nil, has the boundaries' scan read only the keys' rows.
	lk *keyLookup
}

// affectedBy returns the keys of din's rows under exprs, which are
// expressions over input's rows.
func affectedBy(input plan.Node, exprs []plan.Expr, din []delta.Change, env *Env) (*affectedKeys, error) {
	ak := &affectedKeys{exprs: exprs, keys: make(map[string]bool), lk: lookupFor(input, exprs, exprs, din, env)}
	ev := &plan.EvalContext{Now: env.Now}
	var key []byte
	for _, c := range din {
		var err error
		if key, err = exec.AppendKey(key[:0], exprs, c.Row, ev); err != nil {
			return nil, err
		}
		// Only a new key allocates its string.
		if !ak.keys[string(key)] {
			ak.keys[string(key)] = true
		}
	}
	return ak, nil
}

// boundary evaluates input as of vm and keeps the rows of the affected
// keys. seen, when non-nil, collects the key of every row evaluated.
func (ak *affectedKeys) boundary(input plan.Node, vm VersionMap, env *Env, seen map[string]bool) ([]exec.TRow, error) {
	rows, err := ak.lk.boundary(input, vm, env)
	if err != nil {
		return nil, err
	}
	ev := &plan.EvalContext{Now: env.Now}
	var key []byte
	// The evaluation's rows are this call's own: keep the affected keys'
	// in place.
	out := rows[:0]
	for _, tr := range rows {
		if key, err = exec.AppendKey(key[:0], ak.exprs, tr.Row, ev); err != nil {
			return nil, err
		}
		if seen != nil && !seen[string(key)] {
			seen[string(key)] = true
		}
		if ak.keys == nil || ak.keys[string(key)] {
			out = append(out, tr)
		}
	}
	return out, nil
}

// rowKey returns the key expressions of DISTINCT over n: every column.
func rowKey(n plan.Node) []plan.Expr {
	sc := n.Schema()
	exprs := make([]plan.Expr, sc.Len())
	for i := range exprs {
		exprs[i] = &plan.ColIdx{Idx: i, Name: sc.Column(i).Name, Kind: sc.Column(i).Kind}
	}
	return exprs
}

// keyLookup restricts a boundary's scan to the rows of the affected keys.
type keyLookup struct {
	scan *plan.Scan
	// col is the keyed column's position in the scan, and kind its kind.
	col  int
	kind types.Kind
	// keys are the keyed column's values over Δ's rows.
	keys []int64
}

// lookupFor returns the lookup that restricts the scan under input to the
// rows whose key under inputKeys can equal the key of one of din's rows
// under deltaKeys, the matching key expressions over din's rows. It is nil
// when the keyed path does not apply: off the columnar path, or when no
// input key is a bare column of input that traces through Filter
// (identity) and Project (a bare column reference) to an INT-family column
// of a single scan, or when a key of din fails to evaluate: the caller
// evaluates the same keys over the same rows and reports the error. An
// affected-key rule passes its key expressions as both, din being changes
// of input.
func lookupFor(input plan.Node, inputKeys, deltaKeys []plan.Expr, din []delta.Change, env *Env) *keyLookup {
	if !env.Columnar || !keyedLookups {
		return nil
	}
	for i, e := range inputKeys {
		c, ok := e.(*plan.ColIdx)
		if !ok {
			continue
		}
		if lk := traceKey(input, c.Idx); lk != nil {
			keys, err := lookupKeys(deltaKeys[i], din, lk.kind, &plan.EvalContext{Now: env.Now})
			if err != nil {
				return nil
			}
			lk.keys = keys
			return lk
		}
	}
	return nil
}

// lookupKeys evaluates e over din's rows and returns the distinct values
// of kind among them, normalized as join and group keys compare: an
// integral FLOAT (exec.NormalizeKeyValue) looks up the INT of its value.
// NULLs and other kinds need no key: their rows always come back.
func lookupKeys(e plan.Expr, din []delta.Change, kind types.Kind, ev *plan.EvalContext) ([]int64, error) {
	seen := make(map[int64]bool)
	var keys []int64
	for _, c := range din {
		v, err := plan.Eval(e, c.Row, ev)
		if err != nil {
			return nil, err
		}
		if v = exec.NormalizeKeyValue(v); v.Kind() == kind && !seen[v.IntPayload()] {
			seen[v.IntPayload()] = true
			keys = append(keys, v.IntPayload())
		}
	}
	return keys, nil
}

// traceKey follows column idx of n down to a scan column, or returns nil.
func traceKey(n plan.Node, idx int) *keyLookup {
	switch x := n.(type) {
	case *plan.Scan:
		if kind := x.Schema().Column(idx).Kind; kind.IntFamily() {
			return &keyLookup{scan: x, col: idx, kind: kind}
		}
	case *plan.Filter:
		return traceKey(x.Input, idx)
	case *plan.Project:
		if c, ok := x.Exprs[idx].(*plan.ColIdx); ok {
			return traceKey(x.Input, c.Idx)
		}
	}
	return nil
}

// ctx is pinnedCtx for one boundary, with the lookup's scan reading only
// the candidates of its keys; a nil lookup leaves every scan whole.
func (lk *keyLookup) ctx(vm VersionMap, env *Env) *exec.Context {
	ctx := pinnedCtx(vm, env)
	if lk == nil {
		return ctx
	}
	whole := ctx.BatchOf
	ctx.BatchOf = func(s *plan.Scan) (*types.Batch, error) {
		// The kind check guards against a schema change since binding.
		seq, pinned := vm[s.Table.ID()]
		if sc := s.Table.Schema(); s != lk.scan || !pinned || lk.col >= sc.Len() || sc.Column(lk.col).Kind != lk.kind {
			return whole(s)
		}
		b, ok, err := s.Table.SelectiveLookupKeys(seq, lk.col, lk.keys)
		if err != nil || ok {
			return b, err
		}
		return whole(s)
	}
	return ctx
}

// boundary evaluates n, the input of an affected-key rule or a join's
// other side, as of vm, through the lookup's restricted scan when there is
// one, and keeps every row.
func (lk *keyLookup) boundary(n plan.Node, vm VersionMap, env *Env) ([]exec.TRow, error) {
	env.stats(func(s *Stats) { s.SubplanSnapshotEvals++ })
	if env.Span != nil {
		defer env.Span("ivm.eval")()
	}
	return exec.Run(n, lk.ctx(vm, env))
}
