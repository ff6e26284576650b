package exec

import "dyntables/internal/plan"

// RowIter is a pull-based cursor over plan execution output. Next returns
// the next row, or ok=false once the input is exhausted or Close has been
// called. Iterators are not safe for concurrent use.
type RowIter interface {
	Next() (TRow, bool, error)
	Close()
}

// Stream returns a cursor over the plan's result rows. A batchable
// subtree (Scan→Filter→Project→Limit chains and joins of them) on the
// columnar path streams its selection straight out of its batch; any other plan
// executes through Run on the first Next and streams the materialized
// result. Either way execution is deferred to the first Next, so statement
// errors surface there, and every Next checks ctx.Ctx, so abandoning the
// cursor via context cancellation stops it promptly. With ctx.Stats set,
// every executed plan node reports rows out and inclusive wall time.
func Stream(n plan.Node, ctx *Context) RowIter {
	if ctx.useBatches() && batchable(n) {
		return &batchIter{n: n, ctx: ctx}
	}
	return &runIter{n: n, ctx: ctx}
}

// Collect drains a cursor into a slice, closing it.
func Collect(it RowIter) ([]TRow, error) {
	defer it.Close()
	var out []TRow
	for {
		tr, ok, err := it.Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			return out, nil
		}
		out = append(out, tr)
	}
}

// runIter materializes the plan through Run on the first Next and yields
// its rows. It stays closed after an error or Close.
type runIter struct {
	n      plan.Node
	ctx    *Context
	rows   []TRow
	ran    bool
	closed bool
}

func (it *runIter) Next() (TRow, bool, error) {
	if it.closed {
		return TRow{}, false, nil
	}
	if err := it.ctx.canceled(); err != nil {
		it.Close()
		return TRow{}, false, err
	}
	if !it.ran {
		it.ran = true
		rows, err := Run(it.n, it.ctx)
		if err != nil {
			it.Close()
			return TRow{}, false, err
		}
		it.rows = rows
	}
	if len(it.rows) == 0 {
		return TRow{}, false, nil
	}
	tr := it.rows[0]
	it.rows = it.rows[1:]
	return tr, true, nil
}

func (it *runIter) Close() { it.closed = true; it.rows = nil }
