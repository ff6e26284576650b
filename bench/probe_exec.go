package main

import (
	"context"
	"time"

	"dyntables/internal/exec"
	"dyntables/internal/plan"
	"dyntables/internal/types"
)

// execContext is the executor environment the session builds for a query:
// every scan reads the latest committed version of its table, as rows or —
// on the columnar path — as the table's shared batch.
func execContext(ctx context.Context, now time.Time, args []any, counters *exec.Counters) *exec.Context {
	params := &plan.Params{}
	for _, a := range args {
		params.Positional = append(params.Positional, types.NewInt(a.(int64)))
	}
	return &exec.Context{
		RowsOf: func(s *plan.Scan) (map[string]types.Row, error) {
			return s.Table.Rows(int64(s.Table.VersionCount()))
		},
		BatchOf: func(s *plan.Scan) (*types.Batch, error) {
			return s.Table.Batch(int64(s.Table.VersionCount()))
		},
		Now:      now,
		Params:   params,
		Ctx:      ctx,
		Counters: counters,
	}
}

// timeExec runs an optimized plan to completion the way execSelect does.
func timeExec(n plan.Node, ctx *exec.Context) (int, time.Duration, error) {
	start := time.Now()
	rows, err := exec.Collect(exec.Stream(n, ctx))
	return len(rows), time.Since(start), err
}
