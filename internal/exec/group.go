package exec

import (
	"fmt"
	"slices"
	"strings"
	"unsafe"

	"dyntables/internal/plan"
	"dyntables/internal/types"
)

// groupTable is the one grouping kernel: GROUP BY on the row path
// (AggregateRows) and the columnar path (aggregateBatch), the stored
// accumulators of GroupState, and DISTINCT (DistinctRows) all run through
// it. A group takes its key values from its first row and holds one
// accumulator per aggregate and its row count; the aggregates themselves
// belong to the table.
//
// The table allocates per batch, not per group. Groups live in slabs
// indexed by an int32 slot: row counts in rows, key values in one flat
// slice of groups × keys, accumulators in one of groups × aggregates, and
// the state only some aggregates need (accExt) in one of groups × those
// aggregates. An unsigned table's slots are its groups in first-seen
// order. The index from a row's key to its slot is keyIndex: a single key
// whose values so far share one INT-family kind is keyed by its int64
// payload, a single STRING key by the string, and every other key by its
// normalized encoding, interned into a byte arena. Key normalization
// merges INT 3 with FLOAT 3.0, so a FLOAT or mixed-kind key takes the
// encoded index; a typed index switches to it when such a value arrives.
// A row of a group already seen allocates nothing.
type groupTable struct {
	keys []plan.Expr
	aggs []plan.AggExpr
	// distinct tables group on their rows' whole values, and a group's
	// key values are its first row itself.
	distinct bool
	// signed tables fold rows out as well as in (GroupState): a group
	// whose rows all go frees its slot for reuse, so their slots keep no
	// first-seen order.
	signed bool

	// rows holds each slot's row count; a free slot holds -1.
	rows []int64
	// vals holds nk key values per slot; firsts each distinct group's
	// first row instead.
	vals   []types.Value
	firsts []types.Row
	nk     int
	// accs holds len(aggs) accumulators per slot, and exts nx extensions
	// per slot; extOf maps an aggregate to its extension, or to -1.
	accs  []accumulator
	exts  []accExt
	extOf []int
	nx    int
	// free lists the free slots of a signed table.
	free []int32

	idx keyIndex

	// key is the current row's normalized key encoding (encoded index
	// only), row and args its key values and aggregate arguments; all are
	// reused from row to row.
	key  []byte
	row  types.Row
	args types.Row
}

// maxPresize caps how many groups a table sizes itself for up front from
// its input's length: a large input usually has far fewer groups than
// rows, and a table that outgrows the cap grows as slices and maps do.
const maxPresize = 1024

// newGroupTable returns an empty table grouping by a's keys and
// accumulating a's aggregates, sized for an input of n rows.
func newGroupTable(a *plan.Aggregate, signed bool, n int) *groupTable {
	t := &groupTable{
		keys:   a.GroupBy,
		aggs:   a.Aggs,
		signed: signed,
		nk:     len(a.GroupBy),
		extOf:  make([]int, len(a.Aggs)),
		row:    make(types.Row, len(a.GroupBy)),
		args:   make(types.Row, len(a.Aggs)),
	}
	for i := range a.Aggs {
		t.extOf[i] = -1
		if needsExt(&a.Aggs[i], signed) {
			t.extOf[i] = t.nx
			t.nx++
		}
	}
	t.init(n)
	return t
}

// newDistinctTable returns an empty table grouping on whole rows, sized
// for an input of n rows.
func newDistinctTable(n int) *groupTable {
	t := &groupTable{distinct: true}
	t.init(n)
	return t
}

// init sizes the slabs and the index for an input of n rows.
func (t *groupTable) init(n int) {
	n = min(n, maxPresize)
	if t.nk == 0 && !t.distinct {
		n = min(n, 1) // a global aggregate has one group
	}
	t.rows = make([]int64, 0, n)
	if t.distinct {
		t.firsts = make([]types.Row, 0, n)
	} else {
		t.vals = make([]types.Value, 0, n*t.nk)
	}
	t.accs = make([]accumulator, 0, n*len(t.aggs))
	t.exts = make([]accExt, 0, n*t.nx)
	t.idx = keyIndex{null: -1, hint: n}
	if t.nk != 1 || t.distinct {
		t.idx.mode = indexEncoded
		t.idx.enc = make(map[string]int32, n)
	}
}

// keyVals returns slot s's key values.
func (t *groupTable) keyVals(s int32) types.Row {
	if t.distinct {
		return t.firsts[s]
	}
	return t.vals[int(s)*t.nk : int(s+1)*t.nk : int(s+1)*t.nk]
}

// ext returns slot s's extension for aggregate i, or nil when the
// aggregate has none.
func (t *groupTable) ext(s int32, i int) *accExt {
	if t.extOf[i] < 0 {
		return nil
	}
	return &t.exts[int(s)*t.nx+t.extOf[i]]
}

// appendKey appends the normalized encoding of key values vals to dst.
func appendKey(dst []byte, vals types.Row) []byte {
	for _, v := range vals {
		dst = normalizeKeyValue(v).EncodeKey(dst)
	}
	return dst
}

// indexMode is how a keyIndex keys its slots.
type indexMode uint8

const (
	// indexEmpty: a single key that has held only NULLs so far.
	indexEmpty indexMode = iota
	// indexInt: a single key of one INT-family kind, keyed by payload.
	indexInt
	// indexString: a single STRING key, keyed by the string itself.
	indexString
	// indexEncoded: any key, keyed by its normalized encoding.
	indexEncoded
)

// keyIndex maps a group key to its slot. The typed modes keep the NULL
// key's slot in null. The encoded mode keys the map by strings interned
// into arena, a chunk that is never reallocated: a full chunk stays with
// the keys in it, and the next one starts empty.
type keyIndex struct {
	mode indexMode
	kind types.Kind // indexInt's kind
	null int32
	hint int

	ints map[int64]int32
	strs map[string]int32
	enc  map[string]int32

	arena []byte
	// interned and dead count the encoded keys' bytes in the arena
	// chunks, and those of keys whose groups are gone.
	interned, dead int
}

// find returns the slot of the group of key values vals, or -1. A value
// the typed index cannot key switches it to the encoded one first. In
// the encoded mode t.key holds vals' encoding afterwards.
func (t *groupTable) find(vals types.Row) int32 {
	ix := &t.idx
	if ix.mode != indexEncoded {
		v := vals[0]
		k := v.Kind()
		switch {
		case k == types.KindNull:
			return ix.null
		case ix.mode == indexInt && k == ix.kind:
			if s, ok := ix.ints[v.IntPayload()]; ok {
				return s
			}
			return -1
		case ix.mode == indexString && k == types.KindString:
			if s, ok := ix.strs[v.Str()]; ok {
				return s
			}
			return -1
		case ix.mode == indexEmpty && k.IntFamily():
			ix.mode, ix.kind, ix.ints = indexInt, k, make(map[int64]int32, ix.hint)
			return -1
		case ix.mode == indexEmpty && k == types.KindString:
			ix.mode, ix.strs = indexString, make(map[string]int32, ix.hint)
			return -1
		}
		t.reindex()
	}
	t.key = appendKey(t.key[:0], vals)
	if s, ok := ix.enc[string(t.key)]; ok {
		return s
	}
	return -1
}

// insert indexes slot s under key values vals, which find has just
// looked up.
func (t *groupTable) insert(s int32, vals types.Row) {
	ix := &t.idx
	switch {
	case ix.mode == indexEncoded:
		ix.enc[ix.intern(t.key)] = s
	case vals[0].IsNull():
		ix.null = s
	case ix.mode == indexInt:
		ix.ints[vals[0].IntPayload()] = s
	default:
		ix.strs[vals[0].Str()] = s
	}
}

// remove drops the group of key values vals from the index.
func (t *groupTable) remove(vals types.Row) {
	ix := &t.idx
	switch {
	case ix.mode == indexEncoded:
		t.key = appendKey(t.key[:0], vals)
		delete(ix.enc, string(t.key))
		ix.dead += len(t.key)
	case vals[0].IsNull():
		ix.null = -1
	case ix.mode == indexInt:
		delete(ix.ints, vals[0].IntPayload())
	default:
		delete(ix.strs, vals[0].Str())
	}
}

// intern copies key into the arena and returns it as a string there.
func (ix *keyIndex) intern(key []byte) string {
	if len(key) == 0 {
		return ""
	}
	if len(ix.arena)+len(key) > cap(ix.arena) {
		ix.arena = make([]byte, 0, max(2*cap(ix.arena), len(key), 256))
	}
	at := len(ix.arena)
	ix.arena = append(ix.arena, key...)
	ix.interned += len(key)
	// The bytes are never written again: the arena only grows past them.
	return unsafe.String(&ix.arena[at], len(key))
}

// reindex rebuilds the index in the encoded mode over the slots in use,
// into fresh arena chunks. A typed index switches to the encoded one this
// way, and a signed table compacts an arena that is mostly dead keys.
func (t *groupTable) reindex() {
	live := len(t.rows) - len(t.free)
	t.idx = keyIndex{mode: indexEncoded, null: -1, hint: t.idx.hint, enc: make(map[string]int32, max(live, t.idx.hint))}
	for s := range t.rows {
		if t.rows[s] < 0 {
			continue
		}
		t.key = appendKey(t.key[:0], t.keyVals(int32(s)))
		t.idx.enc[t.idx.intern(t.key)] = int32(s)
	}
}

// add starts a group for key values vals, which find has just looked up
// and not found, and returns its slot.
func (t *groupTable) add(vals types.Row) int32 {
	var s int32
	if n := len(t.free); n > 0 {
		s, t.free = t.free[n-1], t.free[:n-1]
		t.rows[s] = 0
	} else {
		s = int32(len(t.rows))
		t.rows = append(t.rows, 0)
		if t.distinct {
			t.firsts = append(t.firsts, nil)
		} else {
			t.vals = extend(t.vals, t.nk)
		}
		t.accs = extend(t.accs, len(t.aggs))
		t.exts = extend(t.exts, t.nx)
	}
	t.setKey(s, vals)
	t.insert(s, vals)
	return s
}

// extend returns s with n zero elements appended.
func extend[S ~[]E, E any](s S, n int) S {
	s = slices.Grow(s, n)[:len(s)+n]
	clear(s[len(s)-n:])
	return s
}

// fit reallocates each slab whose spare capacity is more than an eighth
// of its length to its length, so that a table that lives on holds no
// growth slack.
func (t *groupTable) fit() {
	t.rows = fitted(t.rows)
	t.vals = fitted(t.vals)
	t.firsts = fitted(t.firsts)
	t.accs = fitted(t.accs)
	t.exts = fitted(t.exts)
}

// fitted returns s, or a copy of it without spare capacity when s has
// more than len(s)/8 to spare.
func fitted[S ~[]E, E any](s S) S {
	if cap(s)-len(s) <= len(s)/8 {
		return s
	}
	return append(make(S, 0, len(s)), s...)
}

// setKey makes vals slot s's key values: a copy, or for a distinct table
// the row itself.
func (t *groupTable) setKey(s int32, vals types.Row) {
	if t.distinct {
		t.firsts[s] = vals
	} else {
		copy(t.keyVals(s), vals)
	}
}

// clearSlot zeroes slot s's accumulators and extensions, so that the
// slot holds no values and starts over.
func (t *groupTable) clearSlot(s int32) {
	na := len(t.aggs)
	clear(t.accs[int(s)*na : int(s+1)*na])
	clear(t.exts[int(s)*t.nx : int(s+1)*t.nx])
}

// release frees slot s of a signed table, whose group has no rows left.
func (t *groupTable) release(s int32) {
	t.remove(t.keyVals(s))
	clear(t.keyVals(s))
	t.clearSlot(s)
	t.rows[s] = -1
	t.free = append(t.free, s)
	// Compact the arena once most of it, and more than a few KiB, is keys
	// of groups that are gone.
	if ix := &t.idx; ix.mode == indexEncoded && ix.dead > 4096 && 2*ix.dead > ix.interned {
		t.reindex()
	}
}

// fold folds the current row, whose key values vals find has just looked
// up as slot s (-1 when the row starts a group) and whose aggregate
// arguments are args, into its group with multiplicity sign, and returns
// the group's slot. ok is false when a signed table cannot represent the
// row: it deletes from a group the table does not hold, its raw key
// values differ from its group's, or a SUM argument is outside the INT
// family (see GroupState).
func (t *groupTable) fold(s int32, vals, args types.Row, sign int64) (_ int32, ok bool, _ error) {
	switch {
	case s >= 0 && t.rows[s] > 0:
		if t.signed && !t.keyVals(s).KeyEqual(vals) {
			return s, false, nil
		}
	case sign < 0:
		return s, false, nil
	case s < 0:
		s = t.add(vals)
	default:
		// A signed group whose rows all went earlier in this Fold starts
		// over from this row.
		t.setKey(s, vals)
		t.clearSlot(s)
	}
	accs := t.accs[int(s)*len(t.aggs) : int(s+1)*len(t.aggs)]
	for i := range accs {
		agg := &t.aggs[i]
		if t.signed && agg.Kind == plan.AggSum && !args[i].IsNull() && !args[i].Kind().IntFamily() {
			return s, false, nil
		}
		if err := accs[i].fold(agg, args[i], sign, t.ext(s, i)); err != nil {
			return s, false, err
		}
	}
	t.rows[s] += sign
	return s, true, nil
}

// foldRows folds rows into the table with multiplicity sign, evaluating
// each row's key values and aggregate arguments. log, when non-nil,
// records each group a row touches before the row folds in. ok is false
// as fold reports it.
func (t *groupTable) foldRows(rows []TRow, sign int64, ctx *Context, log *foldLog) (ok bool, err error) {
	ev := ctx.eval()
	ticks := 0
	for _, tr := range rows {
		if err := ctx.tick(&ticks); err != nil {
			return false, err
		}
		vals := tr.Row
		if !t.distinct {
			vals = t.row
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
		s := t.find(vals)
		if log != nil && s >= 0 {
			log.touch(t, s, false)
		}
		s, ok, err := t.fold(s, vals, t.args, sign)
		if !ok || err != nil {
			return false, err
		}
		if log != nil {
			log.touch(t, s, true)
		}
	}
	return true, nil
}

// width returns the number of values in a group's output row.
func (t *groupTable) width() int { return t.nk + len(t.aggs) }

// render appends slot s's output row to dst: its key values, then each
// aggregate's result.
func (t *groupTable) render(dst types.Row, s int32) types.Row {
	dst = append(dst, t.keyVals(s)...)
	accs := t.accs[int(s)*len(t.aggs):]
	for i := range t.aggs {
		dst = append(dst, accs[i].result(&t.aggs[i], t.ext(s, i)))
	}
	return dst
}

// result renders the groups of an unsigned table in first-seen order,
// each with the row ID hashRowID derives from prefix and its encoded key.
// A global aggregate (no GROUP BY) over empty input yields one row. The
// rows share one backing array, and the IDs one string; a distinct
// group's row is its first row.
func (t *groupTable) result(prefix byte) []TRow {
	if len(t.rows) == 0 && len(t.keys) == 0 && !t.distinct {
		t.key = t.key[:0]
		t.add(nil)
	}
	n := len(t.rows)
	out := make([]TRow, n)
	var backing types.Row
	w := t.width()
	if !t.distinct {
		backing = make(types.Row, n*w)
	}
	var ids rowIDs
	ids.grow(n)
	for s := range out {
		if t.distinct {
			out[s].Row = t.firsts[s]
		} else {
			out[s].Row = t.render(backing[s*w:s*w:(s+1)*w], int32(s))
		}
		t.key = appendKey(t.key[:0], t.keyVals(int32(s)))
		ids.add(prefix, t.key)
	}
	for i := range out {
		out[i].ID = ids.at(i)
	}
	return out
}

// rowIDs builds a batch's row IDs into one string, of which each ID is a
// substring.
type rowIDs struct {
	buf  strings.Builder
	ends []int32
	s    string
}

// grow makes room for n more IDs.
func (r *rowIDs) grow(n int) {
	r.buf.Grow(n * maxRowIDLen)
	r.ends = make([]int32, 0, n)
}

// add appends the ID hashRowID derives from prefix and key.
func (r *rowIDs) add(prefix byte, key []byte) {
	var id [maxRowIDLen]byte
	r.buf.Write(appendRowID(id[:0], prefix, key))
	r.ends = append(r.ends, int32(r.buf.Len()))
}

// at returns the i-th ID added; no ID may be added after the first at.
func (r *rowIDs) at(i int) string {
	if r.s == "" {
		r.s = r.buf.String()
	}
	start := int32(0)
	if i > 0 {
		start = r.ends[i-1]
	}
	return r.s[start:r.ends[i]]
}

// accumulator is one aggregate's counts and sums within a group. The
// aggregate it computes is the table's, so the group holds only the
// state. It holds no pointers, so a slab of them costs the collector
// nothing to scan.
type accumulator struct {
	count    int64
	sumInt   int64
	sumFloat float64
}

// accExt is the state only some aggregates need beside their
// accumulator: MIN, MAX and ANY_VALUE's current value, the values a
// COUNT, SUM or AVG(DISTINCT) has seen, and whether an unsigned SUM has
// folded a FLOAT (a signed table never folds one).
type accExt struct {
	v        types.Value
	distinct map[string]bool
	isFloat  bool
}

// needsExt reports whether agg keeps state in an accExt.
func needsExt(agg *plan.AggExpr, signed bool) bool {
	switch agg.Kind {
	case plan.AggMin, plan.AggMax, plan.AggAnyValue:
		return true
	case plan.AggCount, plan.AggAvg:
		return agg.Distinct && agg.Arg != nil
	case plan.AggSum:
		return !signed || agg.Distinct
	}
	return false
}

// firstSight records v among the values a DISTINCT aggregate has seen and
// reports whether it is new. Values equal under key normalization, such
// as INT 5 and FLOAT 5.0, are one value.
func (x *accExt) firstSight(v types.Value) bool {
	if x.distinct == nil {
		x.distinct = make(map[string]bool)
	}
	k := string(normalizeKeyValue(v).EncodeKey(nil))
	if x.distinct[k] {
		return false
	}
	x.distinct[k] = true
	return true
}

// fold folds one argument value of agg in with multiplicity sign: +1 adds
// it, and −1 takes back a value added before (GroupState), which only the
// invertible kinds (Invertible) support. A −1 subtracts exactly what a +1
// adds, so a sum wraps past MaxInt64 the same whichever order values come
// and go in. x is the aggregate's extension, nil when needsExt says it
// has none.
func (a *accumulator) fold(agg *plan.AggExpr, v types.Value, sign int64, x *accExt) error {
	switch agg.Kind {
	case plan.AggCount:
		if agg.Arg == nil {
			a.count += sign
			return nil
		}
		if v.IsNull() || agg.Distinct && !x.firstSight(v) {
			return nil
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
		// The float sum takes every value and the int sum every INT; SUM's
		// result is the float sum once it has seen a FLOAT. A DISTINCT
		// aggregate folds each value once, an INT and an equal FLOAT being
		// one value, but a FLOAT it skips still makes the result a FLOAT,
		// so the result's kind does not depend on the order of the rows.
		isFloat := v.Kind() == types.KindFloat
		if isFloat && x != nil {
			x.isFloat = true
		}
		if agg.Distinct && !x.firstSight(v) {
			return nil
		}
		a.count += sign
		a.sumFloat += float64(sign) * v.AsFloat()
		if !isFloat {
			a.sumInt += sign * v.Int()
		}
	case plan.AggMin, plan.AggMax:
		if v.IsNull() {
			return nil
		}
		if x.v.IsNull() {
			x.v = v
			return nil
		}
		c, err := types.Compare(v, x.v)
		if err != nil {
			return err
		}
		if (agg.Kind == plan.AggMin && c < 0) || (agg.Kind == plan.AggMax && c > 0) {
			x.v = v
		}
	case plan.AggAnyValue:
		if x.v.IsNull() && !v.IsNull() {
			x.v = v
		}
	}
	return nil
}

// result returns agg's value over the values folded in.
func (a *accumulator) result(agg *plan.AggExpr, x *accExt) types.Value {
	switch agg.Kind {
	case plan.AggCount, plan.AggCountIf:
		return types.NewInt(a.count)
	case plan.AggSum:
		if a.count == 0 {
			return types.Null
		}
		if x != nil && x.isFloat {
			return types.NewFloat(a.sumFloat)
		}
		return types.NewInt(a.sumInt)
	case plan.AggAvg:
		if a.count == 0 {
			return types.Null
		}
		return types.NewFloat(a.sumFloat / float64(a.count))
	case plan.AggMin, plan.AggMax, plan.AggAnyValue:
		return x.v
	default:
		return types.Null
	}
}
