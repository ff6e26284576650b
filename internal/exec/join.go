package exec

import (
	"dyntables/internal/plan"
	"dyntables/internal/sql"
	"dyntables/internal/types"
)

// The hash join. One kernel, hashJoin, joins two columnar inputs: it
// builds a hash table over the right input's key vectors and probes it
// with the left's. Its output is a lazy batch over (left, right) row
// pairs that gathers a column only when something reads it, so an
// aggregate over the join folds the columns it needs and never builds
// the joined rows or their IDs. JoinRows, the entry point over tagged
// rows that the IVM rules use, wraps its inputs as batches and runs the
// same kernel.
//
// The output is the row-at-a-time join's, row for row: left-major, each
// left row's matches in right-input order, a left row without a passing
// match null-extended in its place (LEFT, FULL), and the unmatched right
// rows after all of them in right-input order (RIGHT, FULL). A NULL key
// component never matches; a join without keys pairs every row with every
// row. Keys match when their normalized encodings (normalizeKeyValue,
// EncodeKey) are equal, so INT 1 matches FLOAT 1.0 and not TIMESTAMP 1.

func runJoin(j *plan.Join, ctx *Context) ([]TRow, error) {
	left, err := Run(j.L, ctx)
	if err != nil {
		return nil, err
	}
	right, err := Run(j.R, ctx)
	if err != nil {
		return nil, err
	}
	return JoinRows(j, left, right, ctx)
}

// JoinRows joins two pre-computed inputs using the join node's keys and
// residual. The IVM engine reuses it to join delta streams against
// snapshots without materializing scans twice.
func JoinRows(j *plan.Join, left, right []TRow, ctx *Context) ([]TRow, error) {
	res, err := hashJoin(j, rowsRes(j.L.Schema(), left), rowsRes(j.R.Schema(), right), ctx)
	if err != nil || res.len() == 0 {
		return nil, err
	}
	return res.materialize(), nil
}

// rowsRes wraps tagged rows as a columnar result.
func rowsRes(schema types.Schema, in []TRow) *batchRes {
	ids := make([]string, len(in))
	rows := make([]types.Row, len(in))
	for i, tr := range in {
		ids[i], rows[i] = tr.ID, tr.Row
	}
	return &batchRes{b: types.NewBatch(schema, ids, rows)}
}

// hashJoin joins two columnar inputs. It evaluates the right keys, then
// the left keys, then the residual over every key match, and counts each
// key match as one JoinProbes.
func hashJoin(j *plan.Join, left, right *batchRes, ctx *Context) (*batchRes, error) {
	ev := ctx.eval()
	rk, err := keyVectors(j.RightKeys, right, ev)
	if err != nil {
		return nil, err
	}
	lk, err := keyVectors(j.LeftKeys, left, ev)
	if err != nil {
		return nil, err
	}
	// Key matches as (left, right) dense positions, left-major.
	var ml, mr []int
	if intKey(lk, rk) {
		ml, mr, err = matchKeys(lk[0].Ints(), lk[0].Nulls(), rk[0].Ints(), rk[0].Nulls(), ctx)
	} else {
		lkeys, lnulls := encodeKeys(lk, left.len())
		rkeys, rnulls := encodeKeys(rk, right.len())
		ml, mr, err = matchKeys(lkeys, lnulls, rkeys, rnulls, ctx)
	}
	if err != nil {
		return nil, err
	}
	ctx.count(func(c *Counters) { c.JoinProbes += int64(len(ml)) })

	matches := newJoinBatch(j, left, right, ml, mr)
	// pass lists the matches that satisfy the residual; nil passes all.
	var pass []int
	if j.Residual != nil && len(ml) > 0 {
		if pass, err = plan.FilterVec(j.Residual, matches, nil, ev); err != nil {
			return nil, err
		}
	}
	if j.Type == sql.JoinInner {
		return &batchRes{b: matches, sel: pass}, nil
	}

	// An outer join places the null-extended rows among the matches.
	var ol, or []int
	emit := func(l, r int) { ol, or = append(ol, l), append(or, r) }
	rightMatched := make([]bool, right.len())
	passed := func(m int) bool {
		if pass == nil {
			return true
		}
		if len(pass) > 0 && pass[0] == m {
			pass = pass[1:]
			return true
		}
		return false
	}
	keepLeft := j.Type == sql.JoinLeft || j.Type == sql.JoinFull
	m := 0
	for l := 0; l < left.len(); l++ {
		matched := false
		for ; m < len(ml) && ml[m] == l; m++ {
			if passed(m) {
				matched = true
				rightMatched[mr[m]] = true
				emit(l, mr[m])
			}
		}
		if !matched && keepLeft {
			emit(l, -1)
		}
	}
	if j.Type == sql.JoinRight || j.Type == sql.JoinFull {
		for r, ok := range rightMatched {
			if !ok {
				emit(-1, r)
			}
		}
	}
	return &batchRes{b: newJoinBatch(j, left, right, ol, or)}, nil
}

// keyVectors evaluates key expressions over an input.
func keyVectors(exprs []plan.Expr, in *batchRes, ev *plan.EvalContext) ([]*types.Vector, error) {
	vecs := make([]*types.Vector, len(exprs))
	for i, e := range exprs {
		v, err := plan.EvalVec(e, in.b, in.sel, ev)
		if err != nil {
			return nil, err
		}
		vecs[i] = v
	}
	return vecs, nil
}

// intKey reports whether the key is a single INT-family column that both
// sides hold as typed vectors of the same kind. Such keys match exactly
// when their payloads are equal: normalization leaves them as they are,
// and equal encodings need equal kinds.
func intKey(lk, rk []*types.Vector) bool {
	if len(lk) != 1 || len(rk) != 1 {
		return false
	}
	k := lk[0].Kind()
	return k.IntFamily() && lk[0].Typed(k) && rk[0].Typed(k)
}

// encodeKeys returns each of n rows' normalized key encoding, all slices
// of one string, and which rows have a NULL component (nil when none do).
func encodeKeys(vecs []*types.Vector, n int) ([]string, []bool) {
	var nulls []bool
	arena := make([]byte, 0, n*len(vecs)*9)
	ends := make([]int, n)
	for i := 0; i < n; i++ {
		for _, v := range vecs {
			x := v.Value(i)
			if x.IsNull() {
				if nulls == nil {
					nulls = make([]bool, n)
				}
				nulls[i] = true
			}
			arena = normalizeKeyValue(x).EncodeKey(arena)
		}
		ends[i] = len(arena)
	}
	all := string(arena)
	keys := make([]string, n)
	start := 0
	for i, end := range ends {
		keys[i] = all[start:end]
		start = end
	}
	return keys, nulls
}

// matchKeys hashes the right keys and probes them with the left keys,
// returning every match as (left, right) positions, left-major and, per
// left row, in right order. A row marked in its side's nulls matches
// nothing.
func matchKeys[K comparable](lk []K, lnulls []bool, rk []K, rnulls []bool, ctx *Context) (ml, mr []int, _ error) {
	// head holds each key's first right row, and next[r] the next right
	// row after r with r's key, or -1. Building from the last row back
	// leaves every chain in right order.
	head := make(map[K]int32, len(rk))
	next := make([]int32, len(rk))
	for r := len(rk) - 1; r >= 0; r-- {
		if rnulls != nil && rnulls[r] {
			continue
		}
		h, ok := head[rk[r]]
		if !ok {
			h = -1
		}
		next[r] = h
		head[rk[r]] = int32(r)
	}
	ticks := 0
	for l, k := range lk {
		if lnulls != nil && lnulls[l] {
			continue
		}
		h, ok := head[k]
		if !ok {
			continue
		}
		for r := h; r >= 0; r = next[r] {
			if err := ctx.tick(&ticks); err != nil {
				return nil, nil, err
			}
			ml, mr = append(ml, l), append(mr, int(r))
		}
	}
	return ml, mr, nil
}

// newJoinBatch returns the lazy batch of the join's rows that pair left
// row l[i] with right row r[i], positions in the inputs' selections; -1
// stands for the null-extended side.
func newJoinBatch(j *plan.Join, left, right *batchRes, l, r []int) *types.Batch {
	return types.NewLazyBatch(j.Schema(), len(l), &joinSource{
		l: left.b, r: right.b,
		li: batchRows(left, l), ri: batchRows(right, r),
		lw: j.L.Schema().Len(), rw: j.R.Schema().Len(),
	})
}

// batchRows maps positions in a result's selection to its batch's rows,
// keeping -1. Without a selection they are the same.
func batchRows(res *batchRes, pos []int) []int {
	if res.sel == nil {
		return pos
	}
	out := make([]int, len(pos))
	for i, p := range pos {
		out[i] = -1
		if p >= 0 {
			out[i] = res.sel[p]
		}
	}
	return out
}

// joinSource builds a join batch's parts from its inputs' rows li and ri
// (-1: the null-extended side).
type joinSource struct {
	l, r   *types.Batch
	li, ri []int
	lw, rw int
}

// Col implements types.BatchSource: a gather of one input's column.
func (s *joinSource) Col(c int) *types.Vector {
	if c < s.lw {
		return s.l.Col(c).GatherOrNull(s.li)
	}
	return s.r.Col(c - s.lw).GatherOrNull(s.ri)
}

// Rows implements types.BatchSource: each left row followed by its right
// row, a null-extended side all NULL. Each row is its own allocation, as
// a DT may keep some of them long after the others are gone.
func (s *joinSource) Rows() []types.Row {
	lrows, rrows := rowsAt(s.l, s.li), rowsAt(s.r, s.ri)
	nullL, nullR := make(types.Row, s.lw), make(types.Row, s.rw)
	out := make([]types.Row, len(s.li))
	for i := range out {
		l, r := nullL, nullR
		if p := s.li[i]; p >= 0 {
			l = lrows[p]
		}
		if p := s.ri[i]; p >= 0 {
			r = rrows[p]
		}
		out[i] = l.Concat(r)
	}
	return out
}

// rowsAt returns b's rows when a position in at reads them, else nil.
func rowsAt(b *types.Batch, at []int) []types.Row {
	for _, p := range at {
		if p >= 0 {
			return b.Rows()
		}
	}
	return nil
}

// IDs implements types.BatchSource: the join row ID of each pair.
func (s *joinSource) IDs() []string {
	lids, rids := s.l.IDs(), s.r.IDs()
	id := func(ids []string, p int) string {
		if p < 0 {
			return "-"
		}
		return ids[p]
	}
	out := make([]string, len(s.li))
	for i := range out {
		out[i] = joinID(id(lids, s.li[i]), id(rids, s.ri[i]))
	}
	return out
}

func joinID(l, r string) string { return "(" + l + "*" + r + ")" }

// JoinRowID derives the combined row ID of a join output row; "-" stands
// for the null-extended side of an outer join.
func JoinRowID(l, r string) string { return joinID(l, r) }

// SplitJoinID splits a combined join row ID back into its two components.
// Embedded IDs (nested joins, union branch tags) contain balanced
// parentheses, so the separator is the '*' at parenthesis depth zero.
func SplitJoinID(id string) (l, r string, ok bool) {
	if len(id) < 3 || id[0] != '(' || id[len(id)-1] != ')' {
		return "", "", false
	}
	inner := id[1 : len(id)-1]
	depth := 0
	for i := 0; i < len(inner); i++ {
		switch inner[i] {
		case '(':
			depth++
		case ')':
			depth--
		case '*':
			if depth == 0 {
				return inner[:i], inner[i+1:], true
			}
		}
	}
	return "", "", false
}
