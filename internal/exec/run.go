// Package exec evaluates bound query plans over pinned source versions.
// Run materializes a plan's full result: Scan→Filter→Project→Limit
// chains and hash joins over them run on the columnar path (batch.go,
// join.go), an aggregate over such a subtree folds its batch, and every
// other operator runs row at a time here. Stream/Collect wrap the same
// two paths in the context-cancelable pull cursor that session cursors
// drive. Windows, sorts and unions are still plain row operators — a
// full sort, a partition map — because the engine's focus is refresh
// semantics, not single-query speed.
package exec

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"dyntables/internal/plan"
	"dyntables/internal/sql"
	"dyntables/internal/types"
)

// TRow is a row tagged with its derived row identifier (§5.5: incremental
// DTs define a unique ID for every row in the query result).
type TRow struct {
	ID  string
	Row types.Row
}

// Counters collects execution statistics; the IVM ablation benches use
// them to compare differentiation strategies without depending on
// wall-clock noise.
type Counters struct {
	ScanRows     int64 // rows produced by Scan nodes
	ScanCalls    int64 // number of Scan node executions
	ScanBytes    int64 // estimated bytes of rows produced by Scan nodes
	JoinProbes   int64
	OutputRows   int64
	NodesVisited int64
}

// Context supplies the executor's environment.
type Context struct {
	// RowsOf returns the pinned contents for a scan (the caller resolves
	// the table version per §5.3).
	RowsOf func(s *plan.Scan) (map[string]types.Row, error)
	// BatchOf, when non-nil, returns the pinned contents for a scan as a
	// shared columnar batch (in storage log order), enabling the vectorized
	// fast path of Scan→Filter→Project→Limit chains and joins of them.
	// Scans outside batchable subtrees use RowsOf.
	BatchOf func(s *plan.Scan) (*types.Batch, error)
	// LookupOf, when non-nil, lets a filter straight over a scan on the
	// columnar path read only the candidate rows of the range its
	// predicate leads with: the rows of the pinned version whose key lies
	// in r, and those whose key is NULL or of another kind, in storage log
	// order. ok false means the range is not selective enough, and the
	// scan runs through BatchOf instead.
	LookupOf func(s *plan.Scan, r plan.KeyRange) (_ *types.Batch, ok bool, _ error)
	// Now is CURRENT_TIMESTAMP for this execution.
	Now time.Time
	// Counters, when non-nil, accumulates execution statistics.
	Counters *Counters
	// Params carries bind-parameter values for placeholder expressions.
	Params *plan.Params
	// Ctx, when non-nil, cancels execution: operators check it between
	// rows and abort with its error.
	Ctx context.Context
	// Stats, when non-nil, collects per-plan-node rows and wall time
	// (EXPLAIN ANALYZE); nil — the common case — costs nothing.
	Stats *NodeStats
}

func (c *Context) eval() *plan.EvalContext {
	return &plan.EvalContext{Now: c.Now, Params: c.Params}
}

// canceled returns the cancellation error, if any.
func (c *Context) canceled() error {
	if c.Ctx != nil {
		return c.Ctx.Err()
	}
	return nil
}

// tickEvery is how many rows a hot operator loop may process between
// cancellation checks: frequent enough that heavy joins and aggregations
// abort promptly, rare enough to stay off the profile.
const tickEvery = 4096

// tick counts loop iterations and polls for cancellation periodically.
func (c *Context) tick(n *int) error {
	*n++
	if *n%tickEvery == 0 {
		return c.canceled()
	}
	return nil
}

func (c *Context) count(f func(*Counters)) {
	if c.Counters != nil {
		f(c.Counters)
	}
}

// Run executes a logical plan and returns the result rows with derived row
// IDs. Result order is unspecified except beneath Sort.
func Run(n plan.Node, ctx *Context) ([]TRow, error) {
	if ctx.useBatches() && batchable(n) {
		// runBatch observes every node of the chain, this one included.
		res, err := runBatch(n, ctx)
		if err != nil {
			return nil, err
		}
		return res.materialize(), nil
	}
	start := ctx.Stats.start()
	rows, err := runNode(n, ctx)
	ctx.Stats.observe(n, int64(len(rows)), start)
	return rows, err
}

// runNode dispatches one plan node on the row path; Run wraps it with the
// optional per-node stats observation.
func runNode(n plan.Node, ctx *Context) ([]TRow, error) {
	if err := ctx.canceled(); err != nil {
		return nil, err
	}
	ctx.count(func(c *Counters) { c.NodesVisited++ })
	switch x := n.(type) {
	case *plan.Scan:
		return runScan(x, ctx)
	case *plan.Filter:
		return runFilter(x, ctx)
	case *plan.Project:
		return runProject(x, ctx)
	case *plan.Join:
		return runJoin(x, ctx)
	case *plan.Aggregate:
		return runAggregate(x, ctx)
	case *plan.Window:
		return runWindow(x, ctx)
	case *plan.UnionAll:
		return runUnionAll(x, ctx)
	case *plan.Distinct:
		return runDistinct(x, ctx)
	case *plan.Flatten:
		return runFlatten(x, ctx)
	case *plan.Sort:
		return runSort(x, ctx)
	case *plan.Limit:
		return runLimit(x, ctx)
	case *plan.Values:
		return runValues(x, ctx)
	default:
		return nil, fmt.Errorf("exec: unsupported plan node %T", n)
	}
}

func runScan(s *plan.Scan, ctx *Context) ([]TRow, error) {
	rows, err := ctx.RowsOf(s)
	if err != nil {
		return nil, err
	}
	out := make([]TRow, 0, len(rows))
	for id, r := range rows {
		out = append(out, TRow{ID: id, Row: r})
	}
	if ctx.Counters != nil {
		ctx.Counters.ScanCalls++
		ctx.Counters.ScanRows += int64(len(out))
		ctx.Counters.ScanBytes += approxRowsBytes(out)
	}
	return out, nil
}

// approxRowsBytes estimates the in-memory size of scanned rows — the
// executor's bytes-processed accounting signal. The walk only runs when
// counters are attached, so plain statement execution pays nothing.
func approxRowsBytes(rows []TRow) int64 {
	var n int64
	for i := range rows {
		n += rows[i].Row.ApproxBytes()
	}
	return n
}

func runFilter(f *plan.Filter, ctx *Context) ([]TRow, error) {
	in, err := Run(f.Input, ctx)
	if err != nil {
		return nil, err
	}
	ev := ctx.eval()
	out := in[:0:0]
	ticks := 0
	for _, tr := range in {
		if err := ctx.tick(&ticks); err != nil {
			return nil, err
		}
		ok, err := plan.EvalBool(f.Pred, tr.Row, ev)
		if err != nil {
			return nil, err
		}
		if ok {
			out = append(out, tr)
		}
	}
	return out, nil
}

func runProject(p *plan.Project, ctx *Context) ([]TRow, error) {
	in, err := Run(p.Input, ctx)
	if err != nil {
		return nil, err
	}
	ev := ctx.eval()
	out := make([]TRow, len(in))
	// The output rows share one backing array.
	w := len(p.Exprs)
	backing := make(types.Row, len(in)*w)
	ticks := 0
	for i, tr := range in {
		if err := ctx.tick(&ticks); err != nil {
			return nil, err
		}
		row := backing[i*w : (i+1)*w : (i+1)*w]
		for j, e := range p.Exprs {
			v, err := plan.Eval(e, tr.Row, ev)
			if err != nil {
				return nil, err
			}
			row[j] = v
		}
		out[i] = TRow{ID: tr.ID, Row: row}
	}
	return out, nil
}

// normalizeKeyValue reconciles numerically equal values of different kinds
// so that join and grouping keys match across INT and FLOAT, and unwraps
// variant scalars.
func normalizeKeyValue(v types.Value) types.Value {
	switch v.Kind() {
	case types.KindFloat:
		f := v.Float()
		if f == float64(int64(f)) {
			return types.NewInt(int64(f))
		}
	case types.KindVariant:
		switch x := v.Variant().(type) {
		case nil:
			return types.Null
		case float64:
			return normalizeKeyValue(types.NewFloat(x))
		case string:
			return types.NewString(x)
		case bool:
			return types.NewBool(x)
		}
	}
	return v
}

// EvalKey computes the hash key for key expressions over a row; ok is
// false when any key component is NULL (SQL equality never matches NULLs).
// The IVM engine uses it to find join rows and partitions affected by a
// delta (§5.5.1).
func EvalKey(exprs []plan.Expr, row types.Row, now time.Time) (string, bool, error) {
	return evalKey(exprs, row, &plan.EvalContext{Now: now})
}

// AppendKey appends the encoded key EvalKey returns to dst, so that a
// caller probing a map of keys can reuse one buffer.
func AppendKey(dst []byte, exprs []plan.Expr, row types.Row, ev *plan.EvalContext) ([]byte, error) {
	for _, e := range exprs {
		v, err := plan.Eval(e, row, ev)
		if err != nil {
			return dst, err
		}
		dst = normalizeKeyValue(v).EncodeKey(dst)
	}
	return dst, nil
}

// evalKey computes a hash key for the expressions; ok is false when any
// key component is NULL (SQL equality never matches NULLs).
func evalKey(exprs []plan.Expr, row types.Row, ev *plan.EvalContext) (string, bool, error) {
	var buf []byte
	ok := true
	for _, e := range exprs {
		v, err := plan.Eval(e, row, ev)
		if err != nil {
			return "", false, err
		}
		if v.IsNull() {
			ok = false
		}
		buf = normalizeKeyValue(v).EncodeKey(buf)
	}
	return string(buf), ok, nil
}

// NormalizeKeyValue exposes key normalization (INT/FLOAT reconciliation,
// variant unwrapping) for callers building grouping keys outside the
// executor.
func NormalizeKeyValue(v types.Value) types.Value { return normalizeKeyValue(v) }

// ---------------------------------------------------------------------------
// aggregation
// ---------------------------------------------------------------------------

func runAggregate(a *plan.Aggregate, ctx *Context) ([]TRow, error) {
	if ctx.useBatches() && batchable(a.Input) {
		res, err := runBatch(a.Input, ctx)
		if err != nil {
			return nil, err
		}
		return aggregateBatch(a, res, nil, ctx)
	}
	in, err := Run(a.Input, ctx)
	if err != nil {
		return nil, err
	}
	return AggregateRows(a, in, ctx)
}

// AggregateRows aggregates pre-computed input rows; reused by the IVM
// affected-group recompute rule.
func AggregateRows(a *plan.Aggregate, in []TRow, ctx *Context) ([]TRow, error) {
	t := newGroupTable(a, false, len(in))
	if _, err := t.foldRows(in, 1, ctx, nil); err != nil {
		return nil, err
	}
	return t.result('g'), nil
}

// GroupRowID derives the stable row ID for an aggregate output row from
// its encoded group key: a plaintext prefix plus a 64-bit hash (§5.5.2).
func GroupRowID(encodedKey string) string { return hashRowID('g', encodedKey) }

// DistinctRowID derives the stable row ID for a distinct output row.
func DistinctRowID(encodedKey string) string { return hashRowID('d', encodedKey) }

// maxRowIDLen is the longest ID appendRowID appends: a prefix, ':' and
// 16 hex digits.
const maxRowIDLen = 18

// hashRowID returns prefix, ':' and the FNV-1a 64 hash of key in hex,
// built in one buffer so that the ID is the only allocation.
func hashRowID(prefix byte, key string) string {
	var buf [maxRowIDLen]byte
	buf[0], buf[1] = prefix, ':'
	return string(strconv.AppendUint(buf[:2], fnv64a(key), 16))
}

// appendRowID appends hashRowID's ID of prefix and key to dst.
func appendRowID(dst []byte, prefix byte, key []byte) []byte {
	return strconv.AppendUint(append(dst, prefix, ':'), fnv64a(key), 16)
}

// fnv64a returns the FNV-1a 64 hash of key.
func fnv64a[K string | []byte](key K) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= prime64
	}
	return h
}

// ---------------------------------------------------------------------------
// window functions
// ---------------------------------------------------------------------------

func runWindow(w *plan.Window, ctx *Context) ([]TRow, error) {
	in, err := Run(w.Input, ctx)
	if err != nil {
		return nil, err
	}
	return WindowRows(w, in, ctx)
}

// WindowRows applies window functions to pre-computed input; reused by the
// IVM changed-partition recompute rule (§5.5.1).
func WindowRows(w *plan.Window, in []TRow, ctx *Context) ([]TRow, error) {
	parts, err := WindowPartitions(w, in, ctx)
	if err != nil {
		return nil, err
	}
	out := make([]TRow, 0, len(in))
	for _, p := range parts {
		for i := range p.at {
			out = append(out, TRow{ID: p.ID(i), Row: p.Row(i, nil)})
		}
	}
	return out, nil
}

// WindowPartition is one partition of a window's output: its rows in
// window order and their function values. A caller that keeps only some
// of the rows builds just those (Row) and compares the others in place
// (KeyEqual).
type WindowPartition struct {
	// Key is the partition's encoded PARTITION BY key (AppendKey).
	Key string
	// at holds the partition's rows as positions in the input in, in
	// window order once sorted; oks holds every input row's ORDER BY key,
	// nk values a row.
	in   []TRow
	at   []int32
	oks  []types.Value
	nk   int
	vals []types.Row
}

// Len returns the number of rows in the partition.
func (p *WindowPartition) Len() int { return len(p.at) }

// ID returns row i's row ID: its input row's.
func (p *WindowPartition) ID(i int) string { return p.in[p.at[i]].ID }

// row returns row i's input row.
func (p *WindowPartition) row(i int) types.Row { return p.in[p.at[i]].Row }

// orderKey returns row i's ORDER BY key.
func (p *WindowPartition) orderKey(i int) []types.Value {
	r := int(p.at[i])
	return p.oks[r*p.nk : (r+1)*p.nk]
}

// Row builds row i as the window emits it, or, when cols is non-nil, its
// projection to cols: positions in the window's row, which holds the
// input's columns and then one per function.
func (p *WindowPartition) Row(i int, cols []int) types.Row {
	in, vals := p.row(i), p.vals[i]
	if cols == nil {
		return in.Concat(vals)
	}
	row := make(types.Row, len(cols))
	for j, c := range cols {
		row[j] = windowValue(in, vals, c)
	}
	return row
}

// KeyEqual reports whether Row(i, cols) would have the encoding of row
// (types.Row.KeyEqual), without building it.
func (p *WindowPartition) KeyEqual(i int, cols []int, row types.Row) bool {
	in, vals := p.row(i), p.vals[i]
	if cols == nil {
		return len(row) == len(in)+len(vals) && row[:len(in)].KeyEqual(in) && row[len(in):].KeyEqual(vals)
	}
	if len(row) != len(cols) {
		return false
	}
	for j, c := range cols {
		if !types.KeyEqual(row[j], windowValue(in, vals, c)) {
			return false
		}
	}
	return true
}

// windowValue returns column c of the window's row made of an input row
// and its function values.
func windowValue(in, vals types.Row, c int) types.Value {
	if c < len(in) {
		return in[c]
	}
	return vals[c-len(in)]
}

// WindowPartitions applies window functions to pre-computed input and
// returns the partitions in first-seen order, without building output
// rows.
func WindowPartitions(w *plan.Window, in []TRow, ctx *Context) ([]WindowPartition, error) {
	ev := ctx.eval()
	// parts holds the partitions in first-seen order, and byKey their
	// positions by encoded key; of[r] is row r's partition.
	var parts []WindowPartition
	byKey := make(map[string]int)
	of := make([]int32, len(in))
	var sizes []int32
	nk := len(w.OrderBy)
	oks := make([]types.Value, len(in)*nk)
	var buf []byte
	ticks := 0
	for r, tr := range in {
		if err := ctx.tick(&ticks); err != nil {
			return nil, err
		}
		var err error
		if buf, err = AppendKey(buf[:0], w.PartitionBy, tr.Row, ev); err != nil {
			return nil, err
		}
		for i, o := range w.OrderBy {
			v, err := plan.Eval(o.Expr, tr.Row, ev)
			if err != nil {
				return nil, err
			}
			oks[r*nk+i] = v
		}
		p, seen := byKey[string(buf)]
		if !seen {
			p = len(parts)
			key := string(buf)
			byKey[key] = p
			parts = append(parts, WindowPartition{Key: key, in: in, oks: oks, nk: nk})
			sizes = append(sizes, 0)
		}
		of[r] = int32(p)
		sizes[p]++
	}
	// The partitions' row positions share one block, in input order.
	block := make([]int32, len(in))
	off := 0
	for p, n := range sizes {
		parts[p].at = block[off : off : off+int(n)]
		off += int(n)
	}
	for r, p := range of {
		parts[p].at = append(parts[p].at, int32(r))
	}

	for pi := range parts {
		p := &parts[pi]
		// Sort by ORDER BY with row-ID tie-break so ties are repeatable
		// across refreshes (§5.5.1 requires repeatable tie-breaking).
		slices.SortStableFunc(p.at, func(a, b int32) int {
			ka, kb := oks[int(a)*nk:int(a+1)*nk], oks[int(b)*nk:int(b+1)*nk]
			for k, o := range w.OrderBy {
				c, err := types.Compare(ka[k], kb[k])
				if err != nil {
					c = 0
				}
				if c != 0 {
					if o.Desc {
						return -c
					}
					return c
				}
			}
			return strings.Compare(in[a].ID, in[b].ID)
		})
		vals, err := windowPartition(w, p, ev)
		if err != nil {
			return nil, err
		}
		p.vals = vals
	}
	return parts, nil
}

// windowPartition computes every window function over one sorted partition,
// returning the appended column values per row.
func windowPartition(w *plan.Window, part *WindowPartition, ev *plan.EvalContext) ([]types.Row, error) {
	n := part.Len()
	out := make([]types.Row, n)
	// One block holds every row's values.
	vals := make(types.Row, n*len(w.Funcs))
	for i := range out {
		out[i] = vals[i*len(w.Funcs) : (i+1)*len(w.Funcs) : (i+1)*len(w.Funcs)]
	}
	ordered := len(w.OrderBy) > 0
	for fi, f := range w.Funcs {
		argAt := func(i int) (types.Value, error) {
			if f.Arg == nil {
				return types.Null, nil
			}
			return plan.Eval(f.Arg, part.row(i), ev)
		}
		switch f.Kind {
		case plan.WinRowNumber:
			for i := 0; i < n; i++ {
				out[i][fi] = types.NewInt(int64(i + 1))
			}
		case plan.WinRank, plan.WinDenseRank:
			rank, dense := int64(1), int64(1)
			for i := 0; i < n; i++ {
				if i > 0 && !sameOrderKey(part.orderKey(i-1), part.orderKey(i)) {
					rank = int64(i + 1)
					dense++
				}
				if f.Kind == plan.WinRank {
					out[i][fi] = types.NewInt(rank)
				} else {
					out[i][fi] = types.NewInt(dense)
				}
			}
		case plan.WinLag, plan.WinLead:
			for i := 0; i < n; i++ {
				j := i - int(f.Offset)
				if f.Kind == plan.WinLead {
					j = i + int(f.Offset)
				}
				if j < 0 || j >= n {
					out[i][fi] = types.Null
					continue
				}
				v, err := argAt(j)
				if err != nil {
					return nil, err
				}
				out[i][fi] = v
			}
		case plan.WinFirstValue:
			v, err := argAt(0)
			if err != nil {
				return nil, err
			}
			for i := 0; i < n; i++ {
				out[i][fi] = v
			}
		case plan.WinLastValue:
			v, err := argAt(n - 1)
			if err != nil {
				return nil, err
			}
			for i := 0; i < n; i++ {
				out[i][fi] = v
			}
		case plan.WinSum, plan.WinCount, plan.WinMin, plan.WinMax, plan.WinAvg:
			if err := windowAggregate(f, part, out, fi, ordered, ev); err != nil {
				return nil, err
			}
		default:
			return nil, fmt.Errorf("exec: unsupported window function %s", f.Kind)
		}
	}
	return out, nil
}

// windowAggregate computes aggregate-style window functions: cumulative
// when an ORDER BY is present, whole-partition otherwise.
func windowAggregate(f plan.WindowFunc, part *WindowPartition, out []types.Row, fi int, ordered bool, ev *plan.EvalContext) error {
	n := part.Len()
	var count int64
	var sum float64
	sumIsFloat := false
	var sumInt int64
	minV, maxV := types.Null, types.Null

	emit := func(i int) {
		switch f.Kind {
		case plan.WinCount:
			out[i][fi] = types.NewInt(count)
		case plan.WinSum:
			if count == 0 {
				out[i][fi] = types.Null
			} else if sumIsFloat {
				out[i][fi] = types.NewFloat(sum)
			} else {
				out[i][fi] = types.NewInt(sumInt)
			}
		case plan.WinAvg:
			if count == 0 {
				out[i][fi] = types.Null
			} else {
				out[i][fi] = types.NewFloat(sum / float64(count))
			}
		case plan.WinMin:
			out[i][fi] = minV
		case plan.WinMax:
			out[i][fi] = maxV
		}
	}

	add := func(i int) error {
		var v types.Value
		if f.Arg != nil {
			var err error
			v, err = plan.Eval(f.Arg, part.row(i), ev)
			if err != nil {
				return err
			}
		}
		if f.Kind == plan.WinCount {
			if f.Arg == nil || !v.IsNull() {
				count++
			}
			return nil
		}
		if v.IsNull() {
			return nil
		}
		switch f.Kind {
		case plan.WinSum, plan.WinAvg:
			if !v.Numeric() {
				return fmt.Errorf("exec: %s requires numeric input", f.Kind)
			}
			count++
			if v.Kind() == types.KindFloat {
				sumIsFloat = true
			}
			sum += v.AsFloat()
			if !sumIsFloat {
				sumInt += v.Int()
			}
		case plan.WinMin:
			if minV.IsNull() {
				minV = v
			} else if c, err := types.Compare(v, minV); err == nil && c < 0 {
				minV = v
			}
		case plan.WinMax:
			if maxV.IsNull() {
				maxV = v
			} else if c, err := types.Compare(v, maxV); err == nil && c > 0 {
				maxV = v
			}
		}
		return nil
	}

	if ordered {
		// Cumulative frame: rows with equal order keys share the frame end
		// (RANGE BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW).
		i := 0
		for i < n {
			j := i
			for j < n && sameOrderKey(part.orderKey(i), part.orderKey(j)) {
				if err := add(j); err != nil {
					return err
				}
				j++
			}
			for k := i; k < j; k++ {
				emit(k)
			}
			i = j
		}
		return nil
	}
	for i := 0; i < n; i++ {
		if err := add(i); err != nil {
			return err
		}
	}
	for i := 0; i < n; i++ {
		emit(i)
	}
	return nil
}

func sameOrderKey(a, b []types.Value) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !types.Equal(a[i], b[i]) {
			return false
		}
	}
	return true
}

// ---------------------------------------------------------------------------
// remaining operators
// ---------------------------------------------------------------------------

func runUnionAll(u *plan.UnionAll, ctx *Context) ([]TRow, error) {
	var out []TRow
	for i, input := range u.Inputs {
		rows, err := Run(input, ctx)
		if err != nil {
			return nil, err
		}
		for _, tr := range rows {
			out = append(out, TRow{ID: UnionBranchID(i, tr.ID), Row: tr.Row})
		}
	}
	return out, nil
}

// UnionBranchID derives the output row ID for branch i of a union.
func UnionBranchID(i int, id string) string {
	return "u" + strconv.Itoa(i) + "(" + id + ")"
}

func runDistinct(d *plan.Distinct, ctx *Context) ([]TRow, error) {
	in, err := Run(d.Input, ctx)
	if err != nil {
		return nil, err
	}
	return DistinctRows(in)
}

// DistinctRows eliminates duplicates from pre-computed rows, keeping each
// value's first row; reused by IVM.
func DistinctRows(in []TRow) ([]TRow, error) {
	t := newDistinctTable(len(in))
	if _, err := t.foldRows(in, 1, &Context{}, nil); err != nil {
		return nil, err
	}
	return t.result('d'), nil
}

func runFlatten(f *plan.Flatten, ctx *Context) ([]TRow, error) {
	in, err := Run(f.Input, ctx)
	if err != nil {
		return nil, err
	}
	return FlattenRows(f, in, ctx)
}

// FlattenRows unnests pre-computed rows; reused by IVM.
func FlattenRows(f *plan.Flatten, in []TRow, ctx *Context) ([]TRow, error) {
	ev := ctx.eval()
	var out []TRow
	for _, tr := range in {
		v, err := plan.Eval(f.Expr, tr.Row, ev)
		if err != nil {
			return nil, err
		}
		if v.IsNull() {
			continue
		}
		if v.Kind() != types.KindVariant {
			return nil, fmt.Errorf("exec: FLATTEN requires a VARIANT input, got %s", v.Kind())
		}
		arr, ok := v.Variant().([]any)
		if !ok {
			// Non-array variants flatten to a single row with NULL index.
			row := tr.Row.Concat(types.Row{v, types.Null})
			out = append(out, TRow{ID: tr.ID + "#0", Row: row})
			continue
		}
		for i, el := range arr {
			row := tr.Row.Concat(types.Row{types.NewVariant(el), types.NewInt(int64(i))})
			out = append(out, TRow{ID: tr.ID + "#" + strconv.Itoa(i), Row: row})
		}
	}
	return out, nil
}

func runSort(s *plan.Sort, ctx *Context) ([]TRow, error) {
	in, err := Run(s.Input, ctx)
	if err != nil {
		return nil, err
	}
	ev := ctx.eval()
	type keyed struct {
		tr   TRow
		keys []types.Value
	}
	rows := make([]keyed, len(in))
	ticks := 0
	for i, tr := range in {
		if err := ctx.tick(&ticks); err != nil {
			return nil, err
		}
		ks := make([]types.Value, len(s.Items))
		for j, item := range s.Items {
			v, err := plan.Eval(item.Expr, tr.Row, ev)
			if err != nil {
				return nil, err
			}
			ks[j] = v
		}
		rows[i] = keyed{tr: tr, keys: ks}
	}
	sort.SliceStable(rows, func(i, j int) bool {
		for k, item := range s.Items {
			a, b := rows[i].keys[k], rows[j].keys[k]
			if an := a.IsNull(); an != b.IsNull() && item.Nulls != sql.NullsDefault {
				return an == (item.Nulls == sql.NullsFirst)
			}
			c, err := types.Compare(a, b)
			if err != nil {
				c = 0
			}
			if c != 0 {
				if item.Desc {
					return c > 0
				}
				return c < 0
			}
		}
		return rows[i].tr.ID < rows[j].tr.ID
	})
	out := make([]TRow, len(rows))
	for i, r := range rows {
		out[i] = r.tr
	}
	return out, nil
}

func runLimit(l *plan.Limit, ctx *Context) ([]TRow, error) {
	in, err := Run(l.Input, ctx)
	if err != nil {
		return nil, err
	}
	if int64(len(in)) > l.N {
		in = in[:l.N]
	}
	return in, nil
}

func runValues(v *plan.Values, ctx *Context) ([]TRow, error) {
	out := make([]TRow, len(v.Rows))
	for i, r := range v.Rows {
		out[i] = TRow{ID: "v:" + strconv.Itoa(i), Row: r}
	}
	return out, nil
}
