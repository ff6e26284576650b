package main

import (
	"fmt"
	"time"

	"dyntables/internal/core"
	"dyntables/internal/delta"
	"dyntables/internal/hlc"
	"dyntables/internal/ivm"
	"dyntables/internal/plan"
	"dyntables/internal/storage"
)

// refreshRounds decomposes refreshes. Every round applies one delta of the
// workload's size through the embedded session and advances the clock one
// period. Even rounds refresh each DT serially through Session.ManualRefresh
// and, before each, re-execute its parts from outside: preparing the
// defining query, differentiating it over the DT's frontier interval with
// ivm.Delta, and applying the resulting change set to a clone of the DT's
// storage — recorded as core.refresh ⊃ {plan.bind, ivm.delta,
// storage.apply}. Each DT's REFRESH_MODE=FULL sibling is refreshed beside it
// (and suspended otherwise). Odd rounds run the scheduler's wave over the
// same four DTs.
//
// The differentiation runs twice and the second run counts: the first one
// materialises the sources' new version (rows and batch), which the real
// refresh that follows then finds cached — parent and children must see the
// same cache state. What the first reader of a new version pays is
// storage.rows_rebuild_ms and storage.batch_build_ms.
func (p *probe) refreshRounds() error {
	e := p.b.e
	for _, k := range dtKinds {
		dt, err := e.DynamicTableHandle("dt_" + k + "_full")
		if err != nil {
			return err
		}
		dt.Suspend()
	}

	acc := refreshAcc{refresh: map[string]samples{}, full: map[string]samples{}, delta: map[string]samples{},
		plan: map[string]samples{}, scanRatio: map[string][]float64{}}
	dmlT := map[string]samples{}
	var waves samples
	for r := 0; r < p.v.sz.RefreshRounds; r++ {
		for _, d := range p.b.g.delta(p.delta) {
			took := p.do(true, func() error { return p.b.execDML(p.v.ctx, d) }, "probe.dml")
			dmlT[d.kind] = append(dmlT[d.kind], took)
		}
		if r%2 == 1 {
			err := quiet(func() error {
				waves.add(p.do(true, func() error {
					ran, skipped, err := p.b.wave()
					if err == nil && (ran != len(dtKinds) || skipped != 0) {
						err = fmt.Errorf("traced wave ran %d refreshes and skipped %d", ran, skipped)
					}
					return err
				}, "probe.wave"))
				return nil
			})
			if err != nil {
				return err
			}
			continue
		}
		e.AdvanceTime(waveStep)
		for _, k := range dtKinds {
			if err := quiet(func() error { return p.decomposeRefresh(k, &acc) }); err != nil {
				return err
			}
		}
	}
	for _, k := range dtKinds {
		p.check(e.CheckDVS("dt_" + k))
	}

	var serial time.Duration
	for _, k := range dtKinds {
		n := len(acc.refresh[k])
		p.set("core.refresh_ms."+k, ms(acc.refresh[k].median()), "ms", n)
		p.set("core.incr_over_full."+k, float64(acc.refresh[k].median())/float64(acc.full[k].median()), "ratio", n)
		p.set("ivm.delta_ms."+k, ms(acc.delta[k].median()), "ms", n)
		p.set("ivm.scan_rows_per_changed_row."+k, medianOf(acc.scanRatio[k]), "rows/row", n)
		serial += acc.refresh[k].median()
	}
	// Parse, bind and optimize of the defining query: paid on every refresh.
	p.set("plan.bind_us.dt_window", us(acc.plan["window"].median()), "us", len(acc.plan["window"]))
	p.set("ivm.snapshot_evals_per_refresh", float64(acc.stats.SubplanSnapshotEvals)/float64(acc.refreshes), "count", acc.refreshes)
	p.set("ivm.window_partitions_recomputed_share",
		float64(acc.stats.PartitionsRecomputed)/float64(max(acc.stats.PartitionsTotal, 1)), "ratio", int(acc.stats.PartitionsTotal))
	// 1 means the wave overlapped nothing, 2 is perfect use of two workers;
	// the slowest DT sets the wave.
	p.set("refresher.overlap_ratio", float64(serial)/float64(waves.median()), "ratio", len(waves))
	for _, k := range []string{"insert", "update", "delete"} {
		p.set("session.dml_ms."+k, ms(dmlT[k].median()), "ms", len(dmlT[k]))
	}
	return nil
}

// refreshAcc accumulates the decomposed refreshes of all rounds by DT kind.
type refreshAcc struct {
	refresh, full, delta, plan map[string]samples
	scanRatio                  map[string][]float64
	stats                      ivm.Stats // summed over every differentiation
	refreshes                  int
}

// decomposeRefresh measures one DT's next refresh from outside, then runs it.
func (p *probe) decomposeRefresh(kind string, acc *refreshAcc) error {
	e, name := p.b.e, "dt_"+kind
	dt, err := e.DynamicTableHandle(name)
	if err != nil {
		return err
	}
	sibling, err := e.DynamicTableHandle(name + "_full")
	if err != nil {
		return err
	}
	bound, dBind, err := planDT(e, kind)
	if err != nil {
		return err
	}
	if _, err := deltaProbe(bound, dt, e.Now()); err != nil {
		return fmt.Errorf("ivm.Delta of %s: %w", name, err)
	}
	dp, err := deltaProbe(bound, dt, e.Now())
	if err != nil {
		return fmt.Errorf("ivm.Delta of %s: %w", name, err)
	}
	dApply, err := applyOnClone(dt.Storage, dp.changes)
	if err != nil {
		return fmt.Errorf("storage.Apply of %s's delta: %w", name, err)
	}
	start := time.Now()
	dRefresh := p.do(true, func() error {
		if err := p.b.s.ManualRefresh(name); err != nil {
			return err
		}
		if rec, ok := dt.LastRecord(); !ok || rec.Action != core.ActionIncremental {
			return fmt.Errorf("%s refreshed with %v, want INCREMENTAL", name, rec.Action)
		}
		return nil
	}, "probe.refresh")
	p.tree("core.refresh", dRefresh, start,
		child{"plan.bind", dBind, nil}, child{"ivm.delta", dp.took, nil}, child{"storage.apply", dApply, nil})

	sibling.Resume()
	dFull := p.do(true, func() error { return p.b.s.ManualRefresh(name + "_full") }, "probe.refresh_full")
	sibling.Suspend()

	acc.refresh[kind] = append(acc.refresh[kind], dRefresh)
	acc.full[kind] = append(acc.full[kind], dFull)
	acc.delta[kind] = append(acc.delta[kind], dp.took)
	acc.plan[kind] = append(acc.plan[kind], dBind)
	acc.scanRatio[kind] = append(acc.scanRatio[kind], float64(dp.scanRows)/float64(p.delta))
	acc.stats.SubplanSnapshotEvals += dp.stats.SubplanSnapshotEvals
	acc.stats.PartitionsRecomputed += dp.stats.PartitionsRecomputed
	acc.stats.PartitionsTotal += dp.stats.PartitionsTotal
	acc.refreshes++
	return nil
}

// applyOnClone times storage.Table.Apply of a change set on a zero-copy
// clone of the table, warmed so that the clone already holds its tip.
func applyOnClone(t *storage.Table, cs delta.ChangeSet) (time.Duration, error) {
	last := t.LatestVersion()
	clone, err := t.Clone(last.Commit)
	if err != nil {
		return 0, err
	}
	if _, err := clone.Rows(last.Seq); err != nil {
		return 0, err
	}
	commit := hlc.Timestamp{WallMicros: last.Commit.WallMicros + 1}
	start := time.Now()
	_, err = clone.Apply(cs, commit)
	return time.Since(start), err
}

// latestVersions maps every table a plan scans to its latest version.
func latestVersions(n plan.Node) map[int64]int64 {
	vm := map[int64]int64{}
	for _, scan := range plan.Scans(n) {
		vm[scan.Table.ID()] = int64(scan.Table.VersionCount())
	}
	return vm
}
