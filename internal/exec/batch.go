package exec

import (
	"fmt"

	"dyntables/internal/plan"
	"dyntables/internal/types"
)

// This file implements the columnar fast path: Scan→Filter→Project→Limit
// chains, and hash joins of two such subtrees (join.go), execute over
// shared, version-cached column batches with vectorized predicates and
// projections, and materialize to []TRow only at the boundary to a
// row-at-a-time operator (window, sort, union, ...); an aggregate over
// such a subtree consumes the batch directly. Operators outside those
// subtrees run on the row path in run.go; the differential harness holds
// the two byte-equivalent.

// batchRes is a columnar intermediate result: a (possibly shared) batch
// plus a selection of surviving row indices; a nil selection means every
// row survives.
type batchRes struct {
	b   *types.Batch
	sel []int
}

// len returns the number of selected rows.
func (r *batchRes) len() int {
	if r.sel == nil {
		return r.b.Len()
	}
	return len(r.sel)
}

// at maps a dense position to a batch row index.
func (r *batchRes) at(i int) int {
	if r.sel == nil {
		return i
	}
	return r.sel[i]
}

// materialize converts the result to tagged rows. The returned slice is
// fresh (safe for in-place downstream sorting) but the rows themselves
// are shared views into the batch and must not be mutated.
func (r *batchRes) materialize() []TRow {
	rows := r.b.Rows()
	ids := r.b.IDs()
	if r.sel == nil {
		out := make([]TRow, len(rows))
		for i := range rows {
			out[i] = TRow{ID: ids[i], Row: rows[i]}
		}
		return out
	}
	out := make([]TRow, len(r.sel))
	for j, i := range r.sel {
		out[j] = TRow{ID: ids[i], Row: rows[i]}
	}
	return out
}

// batchable reports whether the whole subtree under n can execute on
// the columnar path (it bottoms out in scans through vectorizable
// operators and joins only).
func batchable(n plan.Node) bool {
	switch x := n.(type) {
	case *plan.Scan:
		return true
	case *plan.Filter:
		return batchable(x.Input)
	case *plan.Project:
		return batchable(x.Input)
	case *plan.Limit:
		return batchable(x.Input)
	case *plan.Join:
		return batchable(x.L) && batchable(x.R)
	default:
		return false
	}
}

// useBatches reports whether the columnar path is available for this
// execution.
func (c *Context) useBatches() bool {
	return c.BatchOf != nil
}

// runBatch executes a batchable subtree on the columnar path, observing
// each node of it once (rows out = selection length, inclusive time).
func runBatch(n plan.Node, ctx *Context) (*batchRes, error) {
	start := ctx.Stats.start()
	res, err := runBatchNode(n, ctx)
	if err != nil {
		return nil, err
	}
	ctx.Stats.observe(n, int64(res.len()), start)
	return res, nil
}

// runBatchNode dispatches one batchable node; runBatch wraps it with the
// optional per-node stats observation.
func runBatchNode(n plan.Node, ctx *Context) (*batchRes, error) {
	if err := ctx.canceled(); err != nil {
		return nil, err
	}
	ctx.count(func(c *Counters) { c.NodesVisited++ })
	switch x := n.(type) {
	case *plan.Scan:
		b, err := ctx.BatchOf(x)
		if err != nil {
			return nil, err
		}
		ctx.scanned(b)
		return &batchRes{b: b}, nil
	case *plan.Filter:
		in, err := filterInput(x, ctx)
		if err != nil {
			return nil, err
		}
		sel, err := plan.FilterVec(x.Pred, in.b, in.sel, ctx.eval())
		if err != nil {
			return nil, err
		}
		return &batchRes{b: in.b, sel: sel}, nil
	case *plan.Project:
		in, err := runBatch(x.Input, ctx)
		if err != nil {
			return nil, err
		}
		cols := make([]*types.Vector, len(x.Exprs))
		ev := ctx.eval()
		for i, e := range x.Exprs {
			v, err := plan.EvalVec(e, in.b, in.sel, ev)
			if err != nil {
				return nil, err
			}
			cols[i] = v
		}
		ids := in.b.IDs()
		if in.sel != nil {
			all := ids
			ids = make([]string, len(in.sel))
			for j, i := range in.sel {
				ids[j] = all[i]
			}
		}
		return &batchRes{b: types.NewBatchFromCols(x.Schema(), ids, cols)}, nil
	case *plan.Join:
		l, err := runBatch(x.L, ctx)
		if err != nil {
			return nil, err
		}
		r, err := runBatch(x.R, ctx)
		if err != nil {
			return nil, err
		}
		return hashJoin(x, l, r, ctx)
	case *plan.Limit:
		in, err := runBatch(x.Input, ctx)
		if err != nil {
			return nil, err
		}
		n := int(x.N)
		if in.len() <= n {
			return in, nil
		}
		sel := in.sel
		if sel == nil {
			sel = make([]int, n)
			for i := range sel {
				sel[i] = i
			}
		} else {
			sel = sel[:n]
		}
		return &batchRes{b: in.b, sel: sel}, nil
	default:
		return nil, fmt.Errorf("exec: node %T is not batchable", n)
	}
}

// scanned counts a batch a scan read.
func (c *Context) scanned(b *types.Batch) {
	if c.Counters != nil {
		c.Counters.ScanCalls++
		c.Counters.ScanRows += int64(b.Len())
		c.Counters.ScanBytes += b.ApproxBytes()
	}
}

// filterInput runs a filter's input. When the input is a scan and the
// predicate leads with a range on one INT-family column
// (plan.LeadingRange), the scan reads only that range's candidates
// through LookupOf, and the filter evaluates its whole predicate over
// them; an unselective range falls back to the full scan.
func filterInput(f *plan.Filter, ctx *Context) (*batchRes, error) {
	s, ok := f.Input.(*plan.Scan)
	if !ok || ctx.LookupOf == nil {
		return runBatch(f.Input, ctx)
	}
	r, ok := plan.LeadingRange(f.Pred, ctx.Params)
	if !ok || r.Col >= s.Schema().Len() || s.Schema().Column(r.Col).Kind != r.Kind {
		return runBatch(f.Input, ctx)
	}
	start := ctx.Stats.start()
	b, ok, err := ctx.LookupOf(s, r)
	if err != nil {
		return nil, err
	}
	if !ok {
		return runBatch(f.Input, ctx)
	}
	ctx.count(func(c *Counters) { c.NodesVisited++ })
	ctx.scanned(b)
	ctx.Stats.observe(s, int64(b.Len()), start)
	return &batchRes{b: b}, nil
}

// ColumnarRows is an exported handle to a columnar intermediate result.
// It lets the IVM layer carry boundary snapshots across the exec package
// boundary in batch form, deferring (or avoiding) row materialization.
type ColumnarRows struct {
	res *batchRes
}

// Rows materializes the result to tagged rows. The rows are shared views
// into the underlying batch and must not be mutated.
func (c *ColumnarRows) Rows() []TRow { return c.res.materialize() }

// Len returns the number of selected rows.
func (c *ColumnarRows) Len() int { return c.res.len() }

// RunColumnar evaluates a plan subtree on the columnar path when the
// context enables it and the subtree supports it. handled reports
// whether the columnar path ran at all: when false, no work was done and
// the caller must fall back to Run.
func RunColumnar(n plan.Node, ctx *Context) (_ *ColumnarRows, handled bool, _ error) {
	if !ctx.useBatches() || !batchable(n) {
		return nil, false, nil
	}
	res, err := runBatch(n, ctx)
	if err != nil {
		return nil, true, err
	}
	return &ColumnarRows{res: res}, true, nil
}

// AggregateColumnar aggregates a columnar input without materializing
// input rows. When affected is non-nil, rows whose group key is absent
// from it are skipped — the IVM affected-group restriction fused into
// the aggregation loop instead of a separate row-at-a-time filter pass.
func AggregateColumnar(a *plan.Aggregate, in *ColumnarRows, affected map[string]bool, ctx *Context) ([]TRow, error) {
	return aggregateBatch(a, in.res, affected, ctx)
}

// aggregateBatch is the vectorized aggregation loop: group-by and
// aggregate-argument expressions are evaluated once per column over the
// whole batch, and each row folds into the group table (groupTable), so
// the steady-state per-row work (existing group, key already seen)
// allocates nothing. A single key of one INT-family or STRING kind finds
// its group by the value's payload; only the affected-group restriction
// encodes it.
func aggregateBatch(a *plan.Aggregate, in *batchRes, affected map[string]bool, ctx *Context) ([]TRow, error) {
	ev := ctx.eval()
	keys := make([]*types.Vector, len(a.GroupBy))
	for i, g := range a.GroupBy {
		v, err := plan.EvalVec(g, in.b, in.sel, ev)
		if err != nil {
			return nil, err
		}
		keys[i] = v
	}
	args := make([]*types.Vector, len(a.Aggs))
	for i, agg := range a.Aggs {
		if agg.Arg == nil {
			continue
		}
		v, err := plan.EvalVec(agg.Arg, in.b, in.sel, ev)
		if err != nil {
			return nil, err
		}
		args[i] = v
	}

	n := in.len()
	t := newGroupTable(a, false, n)
	ticks := 0
	for i := 0; i < n; i++ {
		if err := ctx.tick(&ticks); err != nil {
			return nil, err
		}
		for k, kv := range keys {
			t.row[k] = kv.Value(i)
		}
		if affected != nil {
			t.key = appendKey(t.key[:0], t.row)
			if !affected[string(t.key)] {
				continue
			}
		}
		for k, av := range args {
			t.args[k] = types.Null
			if av != nil {
				t.args[k] = av.Value(i)
			}
		}
		if _, _, err := t.fold(t.find(t.row), t.row, t.args, 1); err != nil {
			return nil, err
		}
	}
	return t.result('g'), nil
}

// batchIter adapts a columnar result to the pull-based cursor protocol,
// deferring execution to the first Next like runIter so statement
// errors surface on the first row, not at open.
type batchIter struct {
	n   plan.Node
	ctx *Context

	started bool
	err     error
	res     *batchRes
	ids     []string
	rows    []types.Row
	i       int
}

// Next implements RowIter.
func (it *batchIter) Next() (TRow, bool, error) {
	if !it.started {
		it.started = true
		res, err := runBatch(it.n, it.ctx)
		if err != nil {
			it.err = err
		} else {
			it.res = res
			it.ids, it.rows = res.b.IDs(), res.b.Rows()
		}
	}
	if it.err != nil {
		return TRow{}, false, it.err
	}
	if it.i >= it.res.len() {
		return TRow{}, false, nil
	}
	if err := it.ctx.canceled(); err != nil {
		return TRow{}, false, err
	}
	idx := it.res.at(it.i)
	it.i++
	return TRow{ID: it.ids[idx], Row: it.rows[idx]}, true, nil
}

// Close implements RowIter.
func (it *batchIter) Close() {}
