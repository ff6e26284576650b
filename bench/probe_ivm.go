package main

import (
	"time"

	"dyntables/internal/core"
	"dyntables/internal/delta"
	"dyntables/internal/exec"
	"dyntables/internal/ivm"
	"dyntables/internal/plan"
)

// deltaResult is one differentiation measured from outside.
type deltaResult struct {
	changes  delta.ChangeSet
	took     time.Duration
	scanRows int64
	stats    ivm.Stats
}

// deltaProbe differentiates a DT's prepared defining query over the interval
// its next refresh will cover — from its frontier to the latest version of
// every source — with the environment core.Controller gives ivm.Delta. It
// runs before the real refresh, so the frontier is still the interval's
// start.
func deltaProbe(bound *plan.Bound, dt *core.DynamicTable, now time.Time) (deltaResult, error) {
	var res deltaResult
	counters := &exec.Counters{}
	env := &ivm.Env{Now: now, Counters: counters, Stats: &res.stats, Columnar: true}
	iv := ivm.Interval{From: dt.Frontier().Versions, To: latestVersions(bound.Plan)}
	start := time.Now()
	cs, err := ivm.Delta(bound.Plan, iv, env)
	res.took = time.Since(start)
	res.changes, res.scanRows = cs, counters.ScanRows
	return res, err
}
