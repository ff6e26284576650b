package dyntables

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dyntables/internal/core"
	"dyntables/internal/ivm"
	"dyntables/internal/obs"
	"dyntables/internal/persist"
	"dyntables/internal/plan"
	"dyntables/internal/sched"
	"dyntables/internal/sql"
	"dyntables/internal/txn"
	"dyntables/internal/warehouse"
	"dyntables/internal/workload"
)

// This file implements the experiment harness that regenerates every
// figure and table of the paper's evaluation (see DESIGN.md §3 for the
// experiment index). Each experiment returns a structured result that
// cmd/dtbench renders and bench_test.go asserts shape properties over.

// ---------------------------------------------------------------------------
// E3 / Figure 4: lag sawtooth
// ---------------------------------------------------------------------------

// LagSawtoothResult is the Figure 4 series.
type LagSawtoothResult struct {
	TargetLag time.Duration
	Period    time.Duration
	Points    []sched.LagPoint
}

// RunLagSawtooth simulates a single DT under steady source changes and
// records its lag sawtooth (Figure 4): lag rises 1 s/s and drops to
// e_i − v_i at each commit; the peak before the drop is e_i − v_{i−1}.
func RunLagSawtooth(targetLag time.Duration, hours int) (*LagSawtoothResult, error) {
	e := New(WithCostModel(warehouse.CostModel{Fixed: 5 * time.Second, PerRow: time.Millisecond}))
	e.MustExec(`CREATE WAREHOUSE wh`)
	e.MustExec(`CREATE TABLE src (a INT, b INT)`)
	e.MustExec(`INSERT INTO src VALUES (1, 1)`)
	e.MustExec(fmt.Sprintf(
		`CREATE DYNAMIC TABLE d TARGET_LAG = '%d seconds' WAREHOUSE = wh
		 AS SELECT b, count(*) c FROM src GROUP BY b`, int(targetLag.Seconds())))
	dt, err := e.DynamicTableHandle("d")
	if err != nil {
		return nil, err
	}

	end := e.Now().Add(time.Duration(hours) * time.Hour)
	i := 0
	for e.Now().Before(end) {
		e.MustExec(fmt.Sprintf(`INSERT INTO src VALUES (%d, %d)`, i, i%5))
		e.AdvanceTime(time.Minute)
		if err := e.RunScheduler(); err != nil {
			return nil, err
		}
		i++
	}
	return &LagSawtoothResult{
		TargetLag: targetLag,
		Period:    e.Scheduler().Period(dt),
		Points:    e.Scheduler().LagSeries(dt),
	}, nil
}

// ---------------------------------------------------------------------------
// fleet simulation (E4 / Figure 5, E6 / action mix, E7 / change volume)
// ---------------------------------------------------------------------------

// FleetConfig sizes the synthetic fleet.
type FleetConfig struct {
	DTs   int
	Hours int
	Seed  int64
	// StepMinutes is the simulation step between change batches.
	StepMinutes int
	// InitialRows seeds each source table.
	InitialRows int
}

// DefaultFleetConfig is the size used by dtbench and the benches.
var DefaultFleetConfig = FleetConfig{DTs: 60, Hours: 6, Seed: 1, StepMinutes: 5, InitialRows: 1500}

// FleetResult aggregates the §6.3 statistics over a simulated fleet.
type FleetResult struct {
	// Created counts successfully created DTs; Lags holds their target lags.
	Created int
	Lags    []time.Duration
	// IncrementalModeShare is the fraction of DTs with INCREMENTAL
	// effective mode (paper: ~70%).
	IncrementalModeShare float64
	// ActionCounts tallies refresh actions across histories (paper: >90%
	// NO_DATA).
	ActionCounts map[core.RefreshAction]int
	// ChangeFractions holds, per non-initial incremental refresh, the
	// changed-row count over the DT size (paper: 67% < 1%, 21% > 10%).
	ChangeFractions []float64
	// OperatorCounts tallies logical operators across defining queries
	// (Figure 6).
	OperatorCounts map[string]int
	// Credits is the total warehouse spend.
	Credits float64
}

// ActionShare returns the share of a refresh action among all refreshes.
func (r *FleetResult) ActionShare(a core.RefreshAction) float64 {
	total := 0
	for _, n := range r.ActionCounts {
		total += n
	}
	if total == 0 {
		return 0
	}
	return float64(r.ActionCounts[a]) / float64(total)
}

// ChangeFractionShare returns the share of incremental refreshes whose
// changed-row fraction falls in [lo, hi).
func (r *FleetResult) ChangeFractionShare(lo, hi float64) float64 {
	if len(r.ChangeFractions) == 0 {
		return 0
	}
	n := 0
	for _, f := range r.ChangeFractions {
		if f >= lo && f < hi {
			n++
		}
	}
	return float64(n) / float64(len(r.ChangeFractions))
}

// RunFleet simulates a fleet of DTs with Figure 5 lags, Figure 6 query
// shapes, and §6.3 change processes, collecting the population statistics
// the paper reports.
func RunFleet(cfg FleetConfig) (*FleetResult, error) {
	rng := rand.New(rand.NewSource(cfg.Seed))
	e := New(WithCostModel(warehouse.CostModel{Fixed: time.Second, PerRow: 50 * time.Microsecond}))
	e.MustExec(`CREATE WAREHOUSE wh WAREHOUSE_SIZE = 'LARGE'`)

	// Source tables with change processes.
	type source struct {
		name    string
		proc    workload.ChangeProcess
		nextRow int
	}
	sources := []*source{}
	for _, spec := range workload.DefaultTables {
		cols := ""
		for i, c := range spec.IntColumns {
			if i > 0 {
				cols += ", "
			}
			cols += c + " INT"
		}
		e.MustExec(fmt.Sprintf(`CREATE TABLE %s (%s)`, spec.Name, cols))
		src := &source{name: spec.Name, proc: workload.StandardProcesses(rng)}
		// Seed rows in bulk batches.
		batch := ""
		for i := 0; i < cfg.InitialRows; i++ {
			if batch != "" {
				batch += ", "
			}
			batch += rowLiteral(rng, len(spec.IntColumns), i)
			if (i+1)%500 == 0 || i == cfg.InitialRows-1 {
				e.MustExec(fmt.Sprintf(`INSERT INTO %s VALUES %s`, spec.Name, batch))
				batch = ""
			}
		}
		src.nextRow = cfg.InitialRows
		sources = append(sources, src)
	}

	result := &FleetResult{
		ActionCounts:   map[core.RefreshAction]int{},
		OperatorCounts: map[string]int{},
	}

	// Create the fleet.
	gen := workload.NewGenerator(cfg.Seed+1, workload.DefaultGeneratorConfig, nil)
	var dts []*core.DynamicTable
	incremental := 0
	for i := 0; i < cfg.DTs; i++ {
		q := gen.Next()
		lag := workload.SampleLag(rng, workload.Figure5Distribution)
		name := fmt.Sprintf("dt_%03d", i)
		ddl := fmt.Sprintf(`CREATE DYNAMIC TABLE %s TARGET_LAG = '%d seconds' WAREHOUSE = wh AS %s`,
			name, int(lag.Seconds()), q.SQL)
		if _, err := e.Exec(ddl); err != nil {
			return nil, fmt.Errorf("fleet DT %d: %w\n%s", i, err, q.SQL)
		}
		dt, err := e.DynamicTableHandle(name)
		if err != nil {
			return nil, err
		}
		dts = append(dts, dt)
		result.Created++
		result.Lags = append(result.Lags, lag)
		if dt.EffectiveMode == sql.RefreshIncremental {
			incremental++
		}
		// Figure 6 operator census over the bound plan — the paper reports
		// the frequency of operators in *incremental* DT definitions.
		if dt.EffectiveMode == sql.RefreshIncremental {
			bound, err := plan.NewBinder(e).BindSelect(mustParseSelect(dt.Text))
			if err == nil {
				for op, n := range plan.OperatorCounts(plan.Optimize(bound.Plan)) {
					result.OperatorCounts[op] += min(n, 1) // count DTs containing the operator
				}
			}
		}
	}
	if result.Created > 0 {
		result.IncrementalModeShare = float64(incremental) / float64(result.Created)
	}

	// Simulate.
	epoch := e.Now()
	step := time.Duration(cfg.StepMinutes) * time.Minute
	end := epoch.Add(time.Duration(cfg.Hours) * time.Hour)
	last := epoch
	for e.Now().Before(end) {
		now := e.AdvanceTime(step)
		// Apply due change batches.
		for _, src := range sources {
			if !src.proc.Due(epoch, last, now) {
				continue
			}
			applyBatch(e, rng, src.name, &src.nextRow, src.proc)
		}
		last = now
		if err := e.RunScheduler(); err != nil {
			return nil, err
		}
	}

	// Collect statistics from histories.
	for _, dt := range dts {
		hist := dt.History()
		for i, rec := range hist {
			result.ActionCounts[rec.Action]++
			if rec.Action == core.ActionIncremental && i > 0 && rec.RowsAfter > 0 {
				frac := float64(rec.Inserted+rec.Deleted) / float64(rec.RowsAfter)
				result.ChangeFractions = append(result.ChangeFractions, frac)
			}
		}
	}
	wh, _ := e.Warehouses().Get("wh")
	result.Credits = wh.Credits()
	return result, nil
}

func rowLiteral(rng *rand.Rand, cols, seq int) string {
	out := "("
	for c := 0; c < cols; c++ {
		if c > 0 {
			out += ", "
		}
		if c == 0 {
			out += fmt.Sprintf("%d", seq)
		} else {
			out += fmt.Sprintf("%d", rng.Intn(100))
		}
	}
	return out + ")"
}

func applyBatch(e *Engine, rng *rand.Rand, table string, nextRow *int, proc workload.ChangeProcess) {
	updates := int(float64(proc.BatchRows) * proc.UpdateFraction)
	inserts := proc.BatchRows - updates
	if updates > 0 {
		// Update a band of existing rows via the first column.
		lo := rng.Intn(max(*nextRow-updates, 1))
		_, _ = e.Exec(fmt.Sprintf(
			`UPDATE %s SET %s = %s + 1 WHERE %s >= %d AND %s < %d`,
			table, secondCol(table), secondCol(table), firstCol(table), lo, firstCol(table), lo+updates))
	}
	if inserts > 0 {
		batch := ""
		spec := tableSpec(table)
		for i := 0; i < inserts; i++ {
			if batch != "" {
				batch += ", "
			}
			batch += rowLiteral(rng, len(spec.IntColumns), *nextRow)
			*nextRow++
		}
		_, _ = e.Exec(fmt.Sprintf(`INSERT INTO %s VALUES %s`, table, batch))
	}
}

func tableSpec(name string) workload.TableSpec {
	for _, spec := range workload.DefaultTables {
		if spec.Name == name {
			return spec
		}
	}
	return workload.DefaultTables[0]
}

func firstCol(table string) string { return tableSpec(table).IntColumns[0] }
func secondCol(table string) string {
	cols := tableSpec(table).IntColumns
	if len(cols) > 1 {
		return cols[1]
	}
	return cols[0]
}

// ---------------------------------------------------------------------------
// E8: incremental vs full refresh cost crossover (§3.3.2)
// ---------------------------------------------------------------------------

// CrossoverPoint is one row of the E8 sweep.
type CrossoverPoint struct {
	// ChurnFraction is the fraction of source rows updated before the
	// refresh.
	ChurnFraction float64
	// IncrementalWork and FullWork are rows processed (scanned + written)
	// by each refresh mode.
	IncrementalWork int64
	FullWork        int64
	// IncrementalDuration / FullDuration apply the default cost model.
	IncrementalDuration time.Duration
	FullDuration        time.Duration
}

// RunCrossover measures incremental vs full refresh work as churn grows:
// the variable cost of incremental refreshes is linear in the changed rows
// and overtakes the full-refresh cost when a large fraction of the data
// changes (§3.3.2, §6.3: "21% of refreshes change more than 10% of their
// DT, highlighting the need to dynamically choose full refreshes").
func RunCrossover(tableRows int, fractions []float64) ([]CrossoverPoint, error) {
	var out []CrossoverPoint
	for _, f := range fractions {
		inc, err := crossoverRun(tableRows, f, sql.RefreshIncremental)
		if err != nil {
			return nil, err
		}
		full, err := crossoverRun(tableRows, f, sql.RefreshFull)
		if err != nil {
			return nil, err
		}
		model := warehouse.DefaultCostModel
		out = append(out, CrossoverPoint{
			ChurnFraction:       f,
			IncrementalWork:     inc,
			FullWork:            full,
			IncrementalDuration: model.Duration(inc, warehouse.SizeXSmall),
			FullDuration:        model.Duration(full, warehouse.SizeXSmall),
		})
	}
	return out, nil
}

func crossoverRun(tableRows int, churn float64, mode sql.RefreshMode) (int64, error) {
	e := New()
	e.MustExec(`CREATE WAREHOUSE wh`)
	e.MustExec(`CREATE TABLE facts (k INT, v INT)`)
	e.MustExec(`CREATE TABLE dims (k INT, name INT)`)
	batch := ""
	for i := 0; i < tableRows; i++ {
		if batch != "" {
			batch += ", "
		}
		batch += fmt.Sprintf("(%d, %d)", i, i%97)
		if (i+1)%500 == 0 || i == tableRows-1 {
			e.MustExec(`INSERT INTO facts VALUES ` + batch)
			batch = ""
		}
	}
	for i := 0; i < 50; i++ {
		e.MustExec(fmt.Sprintf(`INSERT INTO dims VALUES (%d, %d)`, i, i))
	}
	modeStr := "INCREMENTAL"
	if mode == sql.RefreshFull {
		modeStr = "FULL"
	}
	e.MustExec(fmt.Sprintf(
		`CREATE DYNAMIC TABLE d TARGET_LAG = '1 hour' WAREHOUSE = wh REFRESH_MODE = %s
		 AS SELECT f.k, f.v, d.name FROM facts f JOIN dims d ON f.v %% 50 = d.k`, modeStr))

	churnRows := int(churn * float64(tableRows))
	if churnRows > 0 {
		e.MustExec(fmt.Sprintf(`UPDATE facts SET v = v + 1 WHERE k < %d`, churnRows))
	}
	e.AdvanceTime(time.Minute)
	if err := e.ManualRefresh("d"); err != nil {
		return 0, err
	}
	dt, err := e.DynamicTableHandle("d")
	if err != nil {
		return 0, err
	}
	rec, _ := dt.LastRecord()
	// Work = source rows read + result rows written.
	return rec.SourceRowsScanned + int64(rec.Inserted+rec.Deleted), nil
}

// ---------------------------------------------------------------------------
// E9: initialization timestamp strategy (§3.1.2)
// ---------------------------------------------------------------------------

// InitStrategyResult compares refresh counts for chained DT creation.
type InitStrategyResult struct {
	Depth      int
	ReuseCount int // refreshes with the paper's timestamp reuse
	NaiveCount int // refreshes when every creation picks a fresh timestamp
}

// RunInitStrategy creates a chain of DTs of the given depth in dependency
// order, once with the paper's initialization-timestamp reuse and once
// with the naive fresh-timestamp strategy; the naive strategy's refresh
// count grows quadratically with depth (§3.1.2).
func RunInitStrategy(depth int) (*InitStrategyResult, error) {
	count := func(naive bool) (int, error) {
		e := New()
		e.MustExec(`CREATE WAREHOUSE wh`)
		e.MustExec(`CREATE TABLE base (a INT)`)
		e.MustExec(`INSERT INTO base VALUES (1)`)
		prev := "base"
		var dts []*core.DynamicTable
		for i := 0; i < depth; i++ {
			name := fmt.Sprintf("chain_%02d", i)
			if naive {
				// Naive: initialize at a fresh creation-time timestamp,
				// forcing every upstream DT to refresh at it.
				e.MustExec(fmt.Sprintf(
					`CREATE DYNAMIC TABLE %s TARGET_LAG = '1 hour' WAREHOUSE = wh INITIALIZE = ON_SCHEDULE AS SELECT a FROM %s`,
					name, prev))
				e.AdvanceTime(time.Second)
				if err := e.ManualRefresh(name); err != nil {
					return 0, err
				}
			} else {
				e.MustExec(fmt.Sprintf(
					`CREATE DYNAMIC TABLE %s TARGET_LAG = '1 hour' WAREHOUSE = wh AS SELECT a FROM %s`,
					name, prev))
			}
			dt, err := e.DynamicTableHandle(name)
			if err != nil {
				return 0, err
			}
			dts = append(dts, dt)
			prev = name
		}
		total := 0
		for _, dt := range dts {
			for _, rec := range dt.History() {
				if rec.Action != core.ActionSkip {
					total++
				}
			}
		}
		return total, nil
	}
	reuse, err := count(false)
	if err != nil {
		return nil, err
	}
	naive, err := count(true)
	if err != nil {
		return nil, err
	}
	return &InitStrategyResult{Depth: depth, ReuseCount: reuse, NaiveCount: naive}, nil
}

// ---------------------------------------------------------------------------
// E10: skips under overload (§3.3.3)
// ---------------------------------------------------------------------------

// SkipResult compares skip-enabled and skip-disabled scheduling under an
// over-committed DT.
type SkipResult struct {
	WithSkips    SkipRun
	WithoutSkips SkipRun
}

// SkipRun summarizes one scheduler run.
type SkipRun struct {
	Refreshes int
	Skips     int
	Billed    time.Duration
	FinalLag  time.Duration
	DVSHolds  bool
}

// RunSkipExperiment overloads a DT (refresh duration exceeds the refresh
// period) and compares skip-enabled vs skip-disabled scheduling: skipping
// eliminates the fixed costs of the skipped refreshes while the following
// refresh folds the skipped interval into its change interval.
func RunSkipExperiment(hours int) (*SkipResult, error) {
	run := func(disableSkip bool) (SkipRun, error) {
		e := New(WithCostModel(warehouse.CostModel{Fixed: 150 * time.Second, PerRow: time.Millisecond}))
		e.MustExec(`CREATE WAREHOUSE wh AUTO_SUSPEND = 60`)
		e.MustExec(`CREATE TABLE src (a INT, b INT)`)
		e.MustExec(`INSERT INTO src VALUES (0, 0)`)
		e.MustExec(`CREATE DYNAMIC TABLE d TARGET_LAG = '2 minutes' WAREHOUSE = wh
		            AS SELECT b, count(*) c FROM src GROUP BY b`)
		e.Scheduler().DisableSkip = disableSkip

		end := e.Now().Add(time.Duration(hours) * time.Hour)
		i := 1
		for e.Now().Before(end) {
			e.MustExec(fmt.Sprintf(`INSERT INTO src VALUES (%d, %d)`, i, i%7))
			e.AdvanceTime(time.Minute)
			if err := e.RunScheduler(); err != nil {
				return SkipRun{}, err
			}
			i++
		}
		dt, err := e.DynamicTableHandle("d")
		if err != nil {
			return SkipRun{}, err
		}
		out := SkipRun{DVSHolds: e.CheckDVS("d") == nil, FinalLag: dt.CurrentLag(e.Now())}
		for _, rec := range dt.History() {
			if rec.Action == core.ActionSkip {
				out.Skips++
			} else if rec.Err == nil {
				out.Refreshes++
			}
		}
		wh, _ := e.Warehouses().Get("wh")
		out.Billed = wh.BilledTime()
		return out, nil
	}
	with, err := run(false)
	if err != nil {
		return nil, err
	}
	without, err := run(true)
	if err != nil {
		return nil, err
	}
	return &SkipResult{WithSkips: with, WithoutSkips: without}, nil
}

// ---------------------------------------------------------------------------
// E11: canonical period alignment (§5.2)
// ---------------------------------------------------------------------------

// AlignmentResult compares canonical and exact-period scheduling of a DT
// chain with mismatched target lags.
type AlignmentResult struct {
	CanonicalExtraRefreshes int
	ExactExtraRefreshes     int
	CanonicalRefreshes      int
	ExactRefreshes          int
}

// RunAlignment schedules an upstream/downstream pair with co-prime-ish
// target lags under both period policies. Canonical periods (48·2ⁿ with a
// shared phase) keep every downstream fire time aligned with an upstream
// fire; exact periods force repair refreshes of the upstream at downstream
// timestamps (§5.2).
func RunAlignment(hours int) (*AlignmentResult, error) {
	run := func(exact bool) (extra, total int, err error) {
		e := New()
		e.MustExec(`CREATE WAREHOUSE wh`)
		e.MustExec(`CREATE TABLE src (a INT, b INT)`)
		e.MustExec(`INSERT INTO src VALUES (0, 0)`)
		e.MustExec(`CREATE DYNAMIC TABLE up TARGET_LAG = '7 minutes' WAREHOUSE = wh
		            AS SELECT a, b FROM src`)
		e.MustExec(`CREATE DYNAMIC TABLE down TARGET_LAG = '11 minutes' WAREHOUSE = wh
		            AS SELECT b, count(*) c FROM up GROUP BY b`)
		e.Scheduler().ExactPeriods = exact

		end := e.Now().Add(time.Duration(hours) * time.Hour)
		i := 1
		for e.Now().Before(end) {
			e.MustExec(fmt.Sprintf(`INSERT INTO src VALUES (%d, %d)`, i, i%3))
			e.AdvanceTime(2 * time.Minute)
			if err := e.RunScheduler(); err != nil {
				return 0, 0, err
			}
			i++
		}
		stats := e.Scheduler().Stats()
		return stats.ExtraUpstreamRefreshes, stats.Scheduled, nil
	}
	ce, ct, err := run(false)
	if err != nil {
		return nil, err
	}
	xe, xt, err := run(true)
	if err != nil {
		return nil, err
	}
	return &AlignmentResult{
		CanonicalExtraRefreshes: ce, CanonicalRefreshes: ct,
		ExactExtraRefreshes: xe, ExactRefreshes: xt,
	}, nil
}

// ---------------------------------------------------------------------------
// E12: outer-join derivative strategies (§5.5.1)
// ---------------------------------------------------------------------------

// OuterJoinPoint is one row of the E12 sweep.
type OuterJoinPoint struct {
	Joins            int
	DirectSubplans   int64
	ExpandedSubplans int64
}

// RunOuterJoinAblation differentiates queries with increasing chains of
// LEFT JOINs under the direct derivative and the inner+anti-join
// expansion, counting subplan differentiations: direct stays linear,
// expansion grows exponentially (§5.5.1).
func RunOuterJoinAblation(maxJoins int) ([]OuterJoinPoint, error) {
	var out []OuterJoinPoint
	for k := 1; k <= maxJoins; k++ {
		e := New()
		e.MustExec(`CREATE WAREHOUSE wh`)
		query := `SELECT t0.a FROM src0 t0`
		e.MustExec(`CREATE TABLE src0 (a INT, b INT)`)
		e.MustExec(`INSERT INTO src0 VALUES (1, 1), (2, 2)`)
		for i := 1; i <= k; i++ {
			e.MustExec(fmt.Sprintf(`CREATE TABLE src%d (a INT, b INT)`, i))
			e.MustExec(fmt.Sprintf(`INSERT INTO src%d VALUES (1, 1), (3, 3)`, i))
			query += fmt.Sprintf(` LEFT JOIN src%d t%d ON t0.a = t%d.a`, i, i, i)
		}
		stmt, err := sql.Parse(query)
		if err != nil {
			return nil, err
		}
		bound, err := plan.NewBinder(e).BindSelect(stmt.(*sql.SelectStmt))
		if err != nil {
			return nil, err
		}
		p := plan.Optimize(bound.Plan)

		from := ivm.VersionMap{}
		for _, scan := range plan.Scans(p) {
			from[scan.Table.ID()] = int64(scan.Table.VersionCount())
		}
		e.MustExec(`INSERT INTO src0 VALUES (4, 4)`)
		to := ivm.VersionMap{}
		for _, scan := range plan.Scans(p) {
			to[scan.Table.ID()] = int64(scan.Table.VersionCount())
		}

		var direct, expanded ivm.Stats
		if _, err := ivm.Delta(p, ivm.Interval{From: from, To: to},
			&ivm.Env{Now: e.Now(), Stats: &direct}); err != nil {
			return nil, err
		}
		if _, err := ivm.Delta(p, ivm.Interval{From: from, To: to},
			&ivm.Env{Now: e.Now(), Stats: &expanded, ExpandOuterJoins: true}); err != nil {
			return nil, err
		}
		out = append(out, OuterJoinPoint{
			Joins:            k,
			DirectSubplans:   direct.SubplanDeltaEvals,
			ExpandedSubplans: expanded.SubplanDeltaEvals,
		})
	}
	return out, nil
}

// ---------------------------------------------------------------------------
// E13: window derivative partition scaling (§5.5.1)
// ---------------------------------------------------------------------------

// WindowAblationResult compares changed-partition recompute with full
// recompute.
type WindowAblationResult struct {
	Partitions        int
	TouchedPartitions int
	ChangedRecomputed int64
	FullRecomputed    int64
}

// RunWindowAblation builds a partitioned window query over many
// partitions, touches a few, and differentiates under both strategies:
// the paper's rule recomputes only partitions containing changes.
func RunWindowAblation(partitions, touched int) (*WindowAblationResult, error) {
	e := New()
	e.MustExec(`CREATE WAREHOUSE wh`)
	e.MustExec(`CREATE TABLE src (grp INT, v INT)`)
	batch := ""
	n := 0
	for g := 0; g < partitions; g++ {
		for r := 0; r < 4; r++ {
			if batch != "" {
				batch += ", "
			}
			batch += fmt.Sprintf("(%d, %d)", g, r)
			n++
			if n%500 == 0 {
				e.MustExec(`INSERT INTO src VALUES ` + batch)
				batch = ""
			}
		}
	}
	if batch != "" {
		e.MustExec(`INSERT INTO src VALUES ` + batch)
	}

	stmt, err := sql.Parse(`SELECT grp, v, row_number() OVER (PARTITION BY grp ORDER BY v) rn FROM src`)
	if err != nil {
		return nil, err
	}
	bound, err := plan.NewBinder(e).BindSelect(stmt.(*sql.SelectStmt))
	if err != nil {
		return nil, err
	}
	p := plan.Optimize(bound.Plan)

	from := ivm.VersionMap{}
	for _, scan := range plan.Scans(p) {
		from[scan.Table.ID()] = int64(scan.Table.VersionCount())
	}
	for g := 0; g < touched; g++ {
		e.MustExec(fmt.Sprintf(`INSERT INTO src VALUES (%d, 99)`, g))
	}
	to := ivm.VersionMap{}
	for _, scan := range plan.Scans(p) {
		to[scan.Table.ID()] = int64(scan.Table.VersionCount())
	}

	var changed, full ivm.Stats
	if _, err := ivm.Delta(p, ivm.Interval{From: from, To: to},
		&ivm.Env{Now: e.Now(), Stats: &changed}); err != nil {
		return nil, err
	}
	if _, err := ivm.Delta(p, ivm.Interval{From: from, To: to},
		&ivm.Env{Now: e.Now(), Stats: &full, FullWindowRecompute: true}); err != nil {
		return nil, err
	}
	return &WindowAblationResult{
		Partitions:        partitions,
		TouchedPartitions: touched,
		ChangedRecomputed: changed.PartitionsRecomputed,
		FullRecomputed:    full.PartitionsRecomputed,
	}, nil
}

// ---------------------------------------------------------------------------
// E14: randomized DVS oracle (§6.1)
// ---------------------------------------------------------------------------

// DVSOracleResult summarizes a randomized DVS run.
type DVSOracleResult struct {
	DTsChecked int
	Rounds     int
	Checks     int
	Violations []string
}

// RunDVSOracle generates random DTs, applies random DML rounds, refreshes,
// and checks the delayed-view-semantics oracle for every DT after every
// round — the §6.1 randomized property test.
func RunDVSOracle(dtCount, rounds int, seed int64) (*DVSOracleResult, error) {
	rng := rand.New(rand.NewSource(seed))
	e := New(WithCostModel(warehouse.CostModel{Fixed: 100 * time.Millisecond, PerRow: time.Microsecond}))
	e.MustExec(`CREATE WAREHOUSE wh`)
	for _, spec := range workload.DefaultTables {
		cols := ""
		for i, c := range spec.IntColumns {
			if i > 0 {
				cols += ", "
			}
			cols += c + " INT"
		}
		e.MustExec(fmt.Sprintf(`CREATE TABLE %s (%s)`, spec.Name, cols))
		for i := 0; i < 30; i++ {
			e.MustExec(fmt.Sprintf(`INSERT INTO %s VALUES %s`, spec.Name, rowLiteral(rng, len(spec.IntColumns), i)))
		}
	}

	gen := workload.NewGenerator(seed, workload.DefaultGeneratorConfig, nil)
	var names []string
	for i := 0; i < dtCount; i++ {
		q := gen.Next()
		name := fmt.Sprintf("oracle_%03d", i)
		ddl := fmt.Sprintf(`CREATE DYNAMIC TABLE %s TARGET_LAG = '1 minute' WAREHOUSE = wh AS %s`, name, q.SQL)
		if _, err := e.Exec(ddl); err != nil {
			return nil, fmt.Errorf("oracle DT %d: %w\n%s", i, err, q.SQL)
		}
		names = append(names, name)
	}

	result := &DVSOracleResult{DTsChecked: len(names), Rounds: rounds}
	next := 1000
	for round := 0; round < rounds; round++ {
		for _, spec := range workload.DefaultTables {
			switch rng.Intn(3) {
			case 0:
				e.MustExec(fmt.Sprintf(`INSERT INTO %s VALUES %s`, spec.Name, rowLiteral(rng, len(spec.IntColumns), next)))
				next++
			case 1:
				col := spec.IntColumns[len(spec.IntColumns)-1]
				e.MustExec(fmt.Sprintf(`UPDATE %s SET %s = %s + 1 WHERE %s %% 5 = %d`,
					spec.Name, col, col, col, rng.Intn(5)))
			case 2:
				key := spec.IntColumns[0]
				e.MustExec(fmt.Sprintf(`DELETE FROM %s WHERE %s %% 17 = %d`, spec.Name, key, rng.Intn(17)))
			}
		}
		e.AdvanceTime(2 * time.Minute)
		if err := e.RunScheduler(); err != nil {
			return nil, err
		}
		for _, name := range names {
			result.Checks++
			if err := e.CheckDVS(name); err != nil {
				result.Violations = append(result.Violations, err.Error())
			}
		}
	}
	return result, nil
}

// ---------------------------------------------------------------------------
// concurrent sessions throughput
// ---------------------------------------------------------------------------

// ConcurrentResult summarizes a mixed-workload run over parallel sessions.
type ConcurrentResult struct {
	Sessions  int
	Queries   int64
	Inserts   int64
	Refreshes int64
	Conflicts int64
	Elapsed   time.Duration
}

// RunConcurrentSessions exercises the concurrent session API: N sessions
// issue mixed SELECT / INSERT / manual-refresh traffic against a shared
// DT pipeline for the given number of operations each. Write-write
// conflicts are expected under first-committer-wins and counted rather
// than failed.
func RunConcurrentSessions(sessions, opsPerSession int) (*ConcurrentResult, error) {
	e := New()
	boot := e.NewSession()
	boot.MustExec(`CREATE WAREHOUSE wh`)
	boot.MustExec(`CREATE TABLE events (id INT, sess INT, amount INT)`)
	boot.MustExec(`CREATE DYNAMIC TABLE totals TARGET_LAG = '1 minute' WAREHOUSE = wh
	               AS SELECT sess, count(*) c, sum(amount) total FROM events GROUP BY sess`)

	res := &ConcurrentResult{Sessions: sessions}
	start := time.Now()
	var wg sync.WaitGroup
	var queries, inserts, refreshes, conflicts atomic.Int64
	errs := make(chan error, sessions)
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			s := e.NewSession()
			ins, err := s.Prepare(`INSERT INTO events VALUES (?, ?, ?)`)
			if err != nil {
				errs <- err
				return
			}
			q, err := s.Prepare(`SELECT count(*) FROM events WHERE sess = :sess`)
			if err != nil {
				errs <- err
				return
			}
			ctx := context.Background()
			for op := 0; op < opsPerSession; op++ {
				switch op % 3 {
				case 0:
					if _, err := ins.ExecContext(ctx, op, id, op%97); err != nil {
						errs <- err
						return
					}
					inserts.Add(1)
				case 1:
					rows, err := q.QueryContext(ctx, Named("sess", id))
					if err != nil {
						errs <- err
						return
					}
					for rows.Next() {
					}
					rows.Close()
					if err := rows.Err(); err != nil {
						errs <- err
						return
					}
					queries.Add(1)
				case 2:
					if err := s.ManualRefreshContext(ctx, "totals"); err != nil {
						// First-committer-wins conflicts and overlapping
						// refreshes are expected under contention.
						if errors.Is(err, txn.ErrConflict) || errors.Is(err, core.ErrSkipped) {
							conflicts.Add(1)
							continue
						}
						errs <- err
						return
					}
					refreshes.Add(1)
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	if err := <-errs; err != nil {
		return nil, err
	}
	res.Queries = queries.Load()
	res.Inserts = inserts.Load()
	res.Refreshes = refreshes.Load()
	res.Conflicts = conflicts.Load()
	res.Elapsed = time.Since(start)
	return res, nil
}

// ---------------------------------------------------------------------------
// recovery: WAL replay time vs log length and snapshot cadence
// ---------------------------------------------------------------------------

// RecoveryPoint measures one crash-recovery run.
type RecoveryPoint struct {
	// CheckpointEvery is the WAL-record checkpoint cadence the crashed
	// engine ran with.
	CheckpointEvery int `json:"checkpoint_every"`
	// WALRecords is how many log records recovery had to replay (records
	// appended after the last snapshot checkpoint).
	WALRecords int `json:"wal_records"`
	// SnapshotPresent reports whether a checkpoint existed at crash time.
	SnapshotPresent bool `json:"snapshot_present"`
	// OpenMillis is the wall-clock recovery time of Open.
	OpenMillis float64 `json:"open_ms"`
	// Versions is the DT's recovered version-chain length, a proxy for
	// recovered history size.
	Versions int `json:"versions"`
	// Rows is the DT's recovered row count.
	Rows int `json:"dt_rows"`
}

// RunRecoveryBench measures crash recovery: for each checkpoint cadence
// it builds a durable engine, runs `rounds` insert+refresh rounds, then
// abandons the engine without Close (simulating a crash, so the WAL tail
// since the last checkpoint must be replayed) and times Open on the same
// directory. dir may be empty to use a temp directory per cadence.
func RunRecoveryBench(dir string, rounds int, cadences []int) ([]RecoveryPoint, error) {
	var points []RecoveryPoint
	for _, every := range cadences {
		d := dir
		if d == "" {
			tmp, err := os.MkdirTemp("", "dtrecovery-*")
			if err != nil {
				return nil, err
			}
			defer os.RemoveAll(tmp)
			d = tmp
		} else {
			// Start each cadence from scratch even when the caller keeps
			// the directory for inspection across runs.
			d = filepath.Join(d, fmt.Sprintf("cadence-%d", every))
			if err := os.RemoveAll(d); err != nil {
				return nil, err
			}
		}

		e, err := Open(d, WithCheckpointEvery(every))
		if err != nil {
			return nil, err
		}
		s := e.NewSession()
		if _, err := s.Exec(`CREATE WAREHOUSE wh`); err != nil {
			return nil, err
		}
		if _, err := s.Exec(`CREATE TABLE ev (id INT, amt INT)`); err != nil {
			return nil, err
		}
		if _, err := s.Exec(`CREATE DYNAMIC TABLE tot TARGET_LAG = '1 minute' WAREHOUSE = wh
		                     AS SELECT id, count(*) c, sum(amt) total FROM ev GROUP BY id`); err != nil {
			return nil, err
		}
		for r := 0; r < rounds; r++ {
			for i := 0; i < 8; i++ {
				if _, err := s.Exec(fmt.Sprintf(`INSERT INTO ev VALUES (%d, %d)`, r%17, i)); err != nil {
					return nil, err
				}
			}
			e.AdvanceTime(time.Minute)
			if err := e.RunScheduler(); err != nil {
				return nil, err
			}
		}
		// Crash: drop the engine without Close — the WAL keeps every
		// record but the final checkpoint is missing, so recovery must
		// replay the tail. (crash also releases the directory lock.)
		if err := e.crash(); err != nil {
			return nil, err
		}
		walRecords, snapPresent, err := persist.Inspect(d)
		if err != nil {
			return nil, err
		}

		start := time.Now()
		e2, err := Open(d)
		if err != nil {
			return nil, err
		}
		openDur := time.Since(start)
		h, err := e2.DynamicTableHandle("tot")
		if err != nil {
			return nil, err
		}
		pt := RecoveryPoint{
			CheckpointEvery: every,
			WALRecords:      walRecords,
			SnapshotPresent: snapPresent,
			OpenMillis:      float64(openDur.Microseconds()) / 1000,
			Versions:        h.Storage.VersionCount(),
			Rows:            h.Storage.RowCount(),
		}
		if err := e2.CheckDVS("tot"); err != nil {
			return nil, fmt.Errorf("recovered engine violates DVS: %w", err)
		}
		if err := e2.Close(); err != nil {
			return nil, err
		}
		points = append(points, pt)
	}
	return points, nil
}

// ---------------------------------------------------------------------------
// parallel refresh execution: DAG-wave scheduling over a worker pool
// ---------------------------------------------------------------------------

// ParallelRefreshResult compares serial and parallel execution of one
// refresh wave over a fan-out DAG (1 base table → N sibling DTs → 1
// rollup DT). Wave wall-clock is virtual time — the warehouse-simulated
// makespan of the wave's jobs — so the comparison is deterministic and
// host-independent; HostMillis records the real execution time of the
// same scheduler pass for reference.
type ParallelRefreshResult struct {
	Siblings int `json:"siblings"`
	Workers  int `json:"workers"`

	SerialWaveMillis   float64 `json:"serial_wave_ms"`
	ParallelWaveMillis float64 `json:"parallel_wave_ms"`
	Speedup            float64 `json:"speedup"`

	SerialHostMillis   float64 `json:"serial_host_ms"`
	ParallelHostMillis float64 `json:"parallel_host_ms"`

	// Effective lag (end − data timestamp) percentiles across the wave's
	// DTs at the measured tick.
	SerialLagP50Millis   float64 `json:"serial_lag_p50_ms"`
	SerialLagP95Millis   float64 `json:"serial_lag_p95_ms"`
	ParallelLagP50Millis float64 `json:"parallel_lag_p50_ms"`
	ParallelLagP95Millis float64 `json:"parallel_lag_p95_ms"`

	// IdenticalRows reports whether every DT's final contents are
	// byte-identical between the serial and parallel runs.
	IdenticalRows bool `json:"identical_rows"`

	// Columnar execution-core throughput, from the per-refresh resource
	// metering: rows processed per CPU-second of refresh work per worker
	// (total refresh rows over total refresh CPU), and heap objects
	// allocated per processed row. The Legacy pair is the identical
	// parallel workload re-run with the columnar path disabled
	// (row-at-a-time fallback), making the pair a before/after on the
	// execution core alone.
	RowsPerSecPerWorker       float64 `json:"rows_per_sec_per_worker"`
	AllocsPerRow              float64 `json:"allocs_per_row"`
	LegacyRowsPerSecPerWorker float64 `json:"legacy_rows_per_sec_per_worker"`
	LegacyAllocsPerRow        float64 `json:"legacy_allocs_per_row"`

	// ColumnarSpeedup is RowsPerSecPerWorker over its legacy counterpart;
	// AllocReductionPct is the percentage drop in allocs/row.
	ColumnarSpeedup   float64 `json:"columnar_speedup"`
	AllocReductionPct float64 `json:"alloc_reduction_pct"`

	// LegacyIdenticalRows reports whether the legacy (row-at-a-time) run
	// produced byte-identical DT contents to the columnar run — the
	// differential check riding inside the benchmark.
	LegacyIdenticalRows bool `json:"legacy_identical_rows"`
}

// parallelFanoutRun builds the fan-out DAG, applies a change batch, runs
// one scheduler pass with the given worker count and measures the wave.
type parallelFanoutRun struct {
	eng        *Engine
	waveMillis float64
	hostMillis float64
	lags       []time.Duration
	contents   string

	// Refresh-attributed resource totals over the measured scheduler
	// pass, from the observability metering: rows processed, CPU time
	// and heap objects allocated across every refresh the pass ran.
	refreshRows   int64
	refreshCPU    time.Duration
	refreshAllocs int64
}

func runParallelFanout(siblings, workers, baseRows, historyCapacity int, columnar bool) (*parallelFanoutRun, error) {
	e := New(
		WithConfig(Config{RefreshWorkers: workers, DeltaParallelism: workers,
			HistoryCapacity: historyCapacity, DisableColumnar: !columnar}),
		WithCostModel(warehouse.CostModel{Fixed: 2 * time.Second, PerRow: time.Millisecond}),
	)
	s := e.NewSession()
	s.MustExec(`CREATE WAREHOUSE wh`)
	s.MustExec(`CREATE TABLE base (k INT, grp INT, v INT)`)
	batch := ""
	for i := 0; i < baseRows; i++ {
		if batch != "" {
			batch += ", "
		}
		batch += fmt.Sprintf("(%d, %d, %d)", i, i%37, i%101)
		if (i+1)%500 == 0 || i == baseRows-1 {
			s.MustExec(`INSERT INTO base VALUES ` + batch)
			batch = ""
		}
	}

	names := make([]string, 0, siblings+1)
	for i := 0; i < siblings; i++ {
		name := fmt.Sprintf("s_%02d", i)
		s.MustExec(fmt.Sprintf(
			`CREATE DYNAMIC TABLE %s TARGET_LAG = '2 minutes' WAREHOUSE = wh
			 AS SELECT grp, count(*) c, sum(v) total FROM base WHERE grp %% %d = %d GROUP BY grp`,
			name, siblings, i))
		names = append(names, name)
	}
	// The rollup carries its own lag (a DOWNSTREAM sink with no consumers
	// would be manual-only, §3.2); sharing the siblings' lag puts it in
	// the same tick as its upstreams, exercising the second wave.
	rollup := `CREATE DYNAMIC TABLE rollup TARGET_LAG = '2 minutes' WAREHOUSE = wh AS `
	for i := 0; i < siblings; i++ {
		if i > 0 {
			rollup += ` UNION ALL `
		}
		rollup += fmt.Sprintf(`SELECT grp, c, total FROM s_%02d`, i)
	}
	s.MustExec(rollup)
	names = append(names, "rollup")
	// A live always-true alert rides the same scheduler pass in BOTH
	// modes, so the wave-makespan gate also covers watchdog evaluation:
	// alerts consume no virtual time, and their host cost is symmetric.
	s.MustExec(`CREATE ALERT live SCHEDULE = '1 minute'
		IF (EXISTS (SELECT grp FROM rollup)) THEN RECORD`)

	// Change batch touching every sibling's slice of the key space.
	batch = ""
	for i := 0; i < baseRows/5; i++ {
		if batch != "" {
			batch += ", "
		}
		batch += fmt.Sprintf("(%d, %d, %d)", baseRows+i, i%37, i%89)
		if (i+1)%500 == 0 || i == baseRows/5-1 {
			s.MustExec(`INSERT INTO base VALUES ` + batch)
			batch = ""
		}
	}

	wh, err := e.Warehouses().Get("wh")
	if err != nil {
		return nil, err
	}
	jobsBefore := len(wh.Jobs())
	pointsBefore := make(map[string]int, len(names))
	for _, name := range names {
		dt, err := e.DynamicTableHandle(name)
		if err != nil {
			return nil, err
		}
		pointsBefore[name] = len(e.Scheduler().LagSeries(dt))
	}
	e.AdvanceTime(2 * time.Minute)
	hostStart := time.Now()
	if err := e.RunScheduler(); err != nil {
		return nil, err
	}
	hostMillis := float64(time.Since(hostStart).Microseconds()) / 1000

	// The wave's makespan: earliest submit to latest end among the jobs
	// this scheduler pass billed.
	jobs := wh.Jobs()[jobsBefore:]
	if len(jobs) == 0 {
		return nil, fmt.Errorf("parallel experiment: scheduler pass billed no jobs")
	}
	first, last := jobs[0].Submit, jobs[0].End
	for _, j := range jobs {
		if j.Submit.Before(first) {
			first = j.Submit
		}
		if j.End.After(last) {
			last = j.End
		}
	}

	// Effective lag per DT over the measured pass: the worst end − data
	// timestamp among the refreshes this pass committed (trailing NO_DATA
	// ticks have ~zero lag and would mask the queueing the experiment is
	// about).
	var lags []time.Duration
	for _, name := range names {
		dt, err := e.DynamicTableHandle(name)
		if err != nil {
			return nil, err
		}
		series := e.Scheduler().LagSeries(dt)
		worst := time.Duration(-1)
		for _, p := range series[pointsBefore[name]:] {
			if p.TroughLag > worst {
				worst = p.TroughLag
			}
		}
		if worst >= 0 {
			lags = append(lags, worst)
		}
	}

	contents, err := dtContents(e, names)
	if err != nil {
		return nil, err
	}
	run := &parallelFanoutRun{
		eng:        e,
		waveMillis: float64(last.Sub(first).Microseconds()) / 1000,
		hostMillis: hostMillis,
		lags:       lags,
		contents:   contents,
	}
	for _, ev := range e.Observability().Resources() {
		if ev.Kind != obs.ResourceRefresh {
			continue
		}
		run.refreshRows += ev.Rows
		run.refreshCPU += ev.CPU
		run.refreshAllocs += ev.AllocObjects
	}
	return run, nil
}

// dtContents canonically serializes the final stored contents of the
// named DTs: every (row ID, row) pair at the latest version, sorted. Two
// runs refresh-equivalent under delayed view semantics produce identical
// bytes.
func dtContents(e *Engine, names []string) (string, error) {
	var sb []string
	for _, name := range names {
		dt, err := e.DynamicTableHandle(name)
		if err != nil {
			return "", err
		}
		rows, err := dt.Storage.Rows(int64(dt.Storage.VersionCount()))
		if err != nil {
			return "", err
		}
		lines := make([]string, 0, len(rows))
		for id, r := range rows {
			lines = append(lines, fmt.Sprintf("%s|%s|%s", name, id, r))
		}
		sort.Strings(lines)
		sb = append(sb, lines...)
	}
	return strings.Join(sb, "\n"), nil
}

func lagPercentile(lags []time.Duration, p float64) float64 {
	if len(lags) == 0 {
		return 0
	}
	sorted := append([]time.Duration(nil), lags...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	idx := int(p * float64(len(sorted)-1))
	return float64(sorted[idx].Microseconds()) / 1000
}

// RunParallelRefresh measures DAG-wave parallel refresh execution: the
// same fan-out DAG and change batch run once with a serial refresher and
// once with `workers` refresh workers. The parallel run must produce
// byte-identical DT contents while compressing the wave's makespan
// toward the critical path.
func RunParallelRefresh(siblings, workers int) (*ParallelRefreshResult, error) {
	const baseRows = 4000
	serial, err := runParallelFanout(siblings, 1, baseRows, 0, true)
	if err != nil {
		return nil, err
	}
	parallel, err := runParallelFanout(siblings, workers, baseRows, 0, true)
	if err != nil {
		return nil, err
	}
	// Same parallel workload with the columnar core switched off: the
	// row-at-a-time fallback is the before in the before/after.
	legacy, err := runParallelFanout(siblings, workers, baseRows, 0, false)
	if err != nil {
		return nil, err
	}
	res := &ParallelRefreshResult{
		Siblings:             siblings,
		Workers:              workers,
		SerialWaveMillis:     serial.waveMillis,
		ParallelWaveMillis:   parallel.waveMillis,
		SerialHostMillis:     serial.hostMillis,
		ParallelHostMillis:   parallel.hostMillis,
		SerialLagP50Millis:   lagPercentile(serial.lags, 0.50),
		SerialLagP95Millis:   lagPercentile(serial.lags, 0.95),
		ParallelLagP50Millis: lagPercentile(parallel.lags, 0.50),
		ParallelLagP95Millis: lagPercentile(parallel.lags, 0.95),
		IdenticalRows:        serial.contents == parallel.contents,
		LegacyIdenticalRows:  legacy.contents == parallel.contents,
	}
	if parallel.waveMillis > 0 {
		res.Speedup = serial.waveMillis / parallel.waveMillis
	}
	perWorker := func(r *parallelFanoutRun) (rowsPerSec, allocsPerRow float64) {
		if sec := r.refreshCPU.Seconds(); sec > 0 {
			rowsPerSec = float64(r.refreshRows) / sec
		}
		if r.refreshRows > 0 {
			allocsPerRow = float64(r.refreshAllocs) / float64(r.refreshRows)
		}
		return rowsPerSec, allocsPerRow
	}
	res.RowsPerSecPerWorker, res.AllocsPerRow = perWorker(parallel)
	res.LegacyRowsPerSecPerWorker, res.LegacyAllocsPerRow = perWorker(legacy)
	if res.LegacyRowsPerSecPerWorker > 0 {
		res.ColumnarSpeedup = res.RowsPerSecPerWorker / res.LegacyRowsPerSecPerWorker
	}
	if res.LegacyAllocsPerRow > 0 {
		res.AllocReductionPct = 100 * (1 - res.AllocsPerRow/res.LegacyAllocsPerRow)
	}
	return res, nil
}

// ---------------------------------------------------------------------------

// ObservabilityBenchResult measures the cost of history recording on the
// PR-3 parallel refresh workload: the same fan-out DAG and scheduler
// pass run with observability disabled (baseline) and enabled, compared
// on the deterministic virtual wave makespan (must not regress) and on
// minimum host execution time across rounds (noise-resistant overhead
// estimate). It also measures the metadata query path itself: the
// acceptance query over DYNAMIC_TABLE_REFRESH_HISTORY through a
// streaming session cursor.
type ObservabilityBenchResult struct {
	Siblings int `json:"siblings"`
	Workers  int `json:"workers"`
	Rounds   int `json:"rounds"`

	// Virtual wave makespan: identical by construction — recording costs
	// no virtual time — so any regression here is a correctness bug.
	BaselineWaveMillis float64 `json:"baseline_wave_ms"`
	ObservedWaveMillis float64 `json:"observed_wave_ms"`
	WaveRegressionPct  float64 `json:"wave_regression_pct"`

	// Host time of the measured scheduler pass (min across rounds).
	BaselineHostMillis float64 `json:"baseline_host_ms"`
	ObservedHostMillis float64 `json:"observed_host_ms"`
	HostOverheadPct    float64 `json:"host_overhead_pct"`

	// EventsRecorded counts refresh events captured by the enabled run;
	// SpansRecorded counts execution-trace spans (the disabled baseline
	// records neither, so the overhead gate covers tracing too);
	// HistoryRows and QueryMillis measure reading events back over the
	// acceptance query's streaming cursor.
	EventsRecorded int     `json:"events_recorded"`
	SpansRecorded  int64   `json:"spans_recorded"`
	HistoryRows    int     `json:"history_rows"`
	QueryMillis    float64 `json:"query_ms"`

	// IdenticalRows reports whether the enabled run produced the same DT
	// contents as the baseline (observability must be read-only).
	IdenticalRows bool `json:"identical_rows"`

	// Resource-attribution figures from the enabled run's
	// RESOURCE_HISTORY refresh events: heap objects allocated per source
	// row processed and host CPU (goroutine wall-time) per refresh.
	RefreshesMetered    int     `json:"refreshes_metered"`
	AllocsPerRow        float64 `json:"allocs_per_row"`
	CPUPerRefreshMillis float64 `json:"cpu_per_refresh_ms"`

	// Watchdog activity from the enabled run: a live always-true alert
	// rides the same scheduler pass in both modes, so the wave gate also
	// covers alert evaluation.
	AlertEvaluations int64 `json:"alert_evaluations"`
	AlertFirings     int64 `json:"alert_firings"`
}

// RunObservabilityBench measures history-recording overhead on the PR-3
// parallel workload. Each mode runs `rounds` times; host timings keep
// the minimum (least-noise) round.
func RunObservabilityBench(siblings, workers, rounds int) (*ObservabilityBenchResult, error) {
	const baseRows = 4000
	if rounds < 1 {
		rounds = 1
	}
	type modeRun struct {
		wave, host float64
		run        *parallelFanoutRun
	}
	runMode := func(historyCapacity int) (*modeRun, error) {
		best := &modeRun{}
		for i := 0; i < rounds; i++ {
			r, err := runParallelFanout(siblings, workers, baseRows, historyCapacity, true)
			if err != nil {
				return nil, err
			}
			if best.run == nil || r.hostMillis < best.host {
				best.run, best.host = r, r.hostMillis
			}
			best.wave = r.waveMillis
		}
		return best, nil
	}

	baseline, err := runMode(-1) // recording disabled
	if err != nil {
		return nil, err
	}
	observed, err := runMode(0) // default capacity
	if err != nil {
		return nil, err
	}

	res := &ObservabilityBenchResult{
		Siblings:           siblings,
		Workers:            workers,
		Rounds:             rounds,
		BaselineWaveMillis: baseline.wave,
		ObservedWaveMillis: observed.wave,
		BaselineHostMillis: baseline.host,
		ObservedHostMillis: observed.host,
		EventsRecorded:     len(observed.run.eng.Observability().AllHistory()),
		SpansRecorded:      observed.run.eng.Tracer().SpanCount(),
		IdenticalRows:      baseline.run.contents == observed.run.contents,
	}
	if baseline.wave > 0 {
		res.WaveRegressionPct = (observed.wave - baseline.wave) / baseline.wave * 100
	}
	if baseline.host > 0 {
		res.HostOverheadPct = (observed.host - baseline.host) / baseline.host * 100
	}

	// Per-refresh resource attribution from the enabled run.
	var cpu time.Duration
	var allocObjects, resourceRows int64
	for _, ev := range observed.run.eng.Observability().Resources() {
		if ev.Kind != obs.ResourceRefresh {
			continue
		}
		res.RefreshesMetered++
		cpu += ev.CPU
		allocObjects += ev.AllocObjects
		resourceRows += ev.Rows
	}
	if resourceRows > 0 {
		res.AllocsPerRow = float64(allocObjects) / float64(resourceRows)
	}
	if res.RefreshesMetered > 0 {
		res.CPUPerRefreshMillis = float64(cpu.Microseconds()) / 1000 / float64(res.RefreshesMetered)
	}
	for _, totals := range observed.run.eng.Observability().AlertCounters() {
		res.AlertEvaluations += totals.Evaluations
		res.AlertFirings += totals.Firings
	}

	// Read the history back through the normal streaming query path.
	sess := observed.run.eng.NewSession()
	qStart := time.Now()
	rows, err := sess.QueryContext(context.Background(),
		`SELECT dt_name, action, inserted, deleted, duration
		 FROM INFORMATION_SCHEMA.DYNAMIC_TABLE_REFRESH_HISTORY ORDER BY data_ts`)
	if err != nil {
		return nil, err
	}
	for rows.Next() {
		res.HistoryRows++
	}
	rows.Close()
	if err := rows.Err(); err != nil {
		return nil, err
	}
	res.QueryMillis = float64(time.Since(qStart).Microseconds()) / 1000
	return res, nil
}

// ---------------------------------------------------------------------------
// adaptive refresh-mode chooser: churn ramp across the crossover
// ---------------------------------------------------------------------------

// AdaptiveRegime summarizes one churn regime of the adaptive bench: the
// total refresh work (rows scanned + rows written) of the adaptive AUTO
// run against DTs pinned to pure INCREMENTAL and pure FULL over the same
// change schedule.
type AdaptiveRegime struct {
	Name string `json:"name"`
	// DimChurn is how many of the 50 dimension rows each step updates.
	DimChurn  int `json:"dim_churn"`
	Refreshes int `json:"refreshes"`

	AdaptiveWork    int64 `json:"adaptive_work"`
	IncrementalWork int64 `json:"incremental_work"`
	FullWork        int64 `json:"full_work"`

	// AdaptiveVsBestPct is how far the adaptive run's total work sits
	// above the cheaper of the two pinned runs (0 = it matched the
	// winner exactly).
	AdaptiveVsBestPct float64 `json:"adaptive_vs_best_pct"`
	// Switches counts effective-mode changes of the adaptive run inside
	// the regime (hysteresis demands ≤ 1).
	Switches  int    `json:"mode_switches"`
	FinalMode string `json:"final_mode"`
}

// AdaptiveStep is one refresh of the ramp, for the committed series.
type AdaptiveStep struct {
	Regime          string `json:"regime"`
	Mode            string `json:"mode"`
	Action          string `json:"action"`
	ChangedRows     int64  `json:"changed_rows"`
	FullScanRows    int64  `json:"full_scan_rows"`
	AdaptiveWork    int64  `json:"adaptive_work"`
	IncrementalWork int64  `json:"incremental_work"`
	FullWork        int64  `json:"full_work"`
}

// AdaptiveBenchResult is the dtbench -exp adaptive output
// (BENCH_adaptive.json).
type AdaptiveBenchResult struct {
	FactRows      int              `json:"fact_rows"`
	DimRows       int              `json:"dim_rows"`
	Regimes       []AdaptiveRegime `json:"regimes"`
	TotalSwitches int              `json:"total_switches"`
	Steps         []AdaptiveStep   `json:"steps"`
}

// adaptiveRun is one engine driving the ramp's shared change schedule.
type adaptiveRun struct {
	eng *Engine
	dt  *core.DynamicTable
}

// newAdaptiveRun builds the facts ⋈ dims fixture with the requested
// refresh-mode declaration. Churning the small dimension side gives the
// join real change amplification: each changed dim row costs a snapshot
// scan of the fact side plus fanned-out output deltas, so incremental
// refreshes overtake full recomputes as churn grows (§3.3.2).
func newAdaptiveRun(factRows, dimRows int, mode string) (*adaptiveRun, error) {
	e := New()
	s := e.NewSession()
	s.MustExec(`CREATE WAREHOUSE wh`)
	s.MustExec(`CREATE TABLE facts (k INT, v INT)`)
	s.MustExec(`CREATE TABLE dims (k INT, name INT)`)
	batch := ""
	for i := 0; i < factRows; i++ {
		if batch != "" {
			batch += ", "
		}
		batch += fmt.Sprintf("(%d, %d)", i, i%97)
		if (i+1)%500 == 0 || i == factRows-1 {
			s.MustExec(`INSERT INTO facts VALUES ` + batch)
			batch = ""
		}
	}
	for i := 0; i < dimRows; i++ {
		s.MustExec(fmt.Sprintf(`INSERT INTO dims VALUES (%d, %d)`, i, i))
	}
	decl := ""
	if mode != "" {
		decl = "REFRESH_MODE = " + mode
	}
	s.MustExec(fmt.Sprintf(
		`CREATE DYNAMIC TABLE d TARGET_LAG = '1 hour' WAREHOUSE = wh %s
		 AS SELECT f.k, f.v, d.name FROM facts f JOIN dims d ON f.v %% %d = d.k`,
		decl, dimRows))
	dt, err := e.DynamicTableHandle("d")
	if err != nil {
		return nil, err
	}
	return &adaptiveRun{eng: e, dt: dt}, nil
}

// step applies one change batch and refreshes, returning the refresh's
// work (rows scanned + rows written) and its record.
func (r *adaptiveRun) step(dimChurn int) (int64, core.RefreshRecord, error) {
	r.eng.MustExec(fmt.Sprintf(`UPDATE dims SET name = name + 1 WHERE k < %d`, dimChurn))
	r.eng.AdvanceTime(time.Minute)
	if err := r.eng.ManualRefresh("d"); err != nil {
		return 0, core.RefreshRecord{}, err
	}
	rec, ok := r.dt.LastRecord()
	if !ok {
		return 0, core.RefreshRecord{}, fmt.Errorf("adaptive: no refresh record")
	}
	return rec.SourceRowsScanned + int64(rec.Inserted+rec.Deleted), rec, nil
}

// RunAdaptiveBench drives a churn ramp across the incremental-vs-full
// crossover with three engines in lockstep — REFRESH_MODE=AUTO under the
// adaptive chooser, pinned INCREMENTAL, pinned FULL — and compares total
// refresh work per regime. The acceptance bar: at both ends of the ramp
// the adaptive run stays within 15% of the cheaper pinned run, with at
// most one mode switch per regime.
func RunAdaptiveBench() (*AdaptiveBenchResult, error) {
	const factRows, dimRows = 4000, 50
	regimes := []struct {
		name  string
		churn int
		steps int
	}{
		{"low", 1, 12},        // incremental wins by ~2x
		{"crossover", 20, 10}, // incremental ≈ full: hysteresis must hold
		{"high", 40, 12},      // full wins by ~1.3x
	}

	auto, err := newAdaptiveRun(factRows, dimRows, "")
	if err != nil {
		return nil, err
	}
	inc, err := newAdaptiveRun(factRows, dimRows, "INCREMENTAL")
	if err != nil {
		return nil, err
	}
	full, err := newAdaptiveRun(factRows, dimRows, "FULL")
	if err != nil {
		return nil, err
	}

	res := &AdaptiveBenchResult{FactRows: factRows, DimRows: dimRows}
	lastMode := ""
	for _, regime := range regimes {
		reg := AdaptiveRegime{Name: regime.name, DimChurn: regime.churn, Refreshes: regime.steps}
		for i := 0; i < regime.steps; i++ {
			aw, arec, err := auto.step(regime.churn)
			if err != nil {
				return nil, err
			}
			iw, _, err := inc.step(regime.churn)
			if err != nil {
				return nil, err
			}
			fw, _, err := full.step(regime.churn)
			if err != nil {
				return nil, err
			}
			reg.AdaptiveWork += aw
			reg.IncrementalWork += iw
			reg.FullWork += fw
			mode := arec.EffectiveMode.String()
			if lastMode != "" && mode != lastMode {
				reg.Switches++
			}
			lastMode = mode
			reg.FinalMode = mode
			res.Steps = append(res.Steps, AdaptiveStep{
				Regime:          regime.name,
				Mode:            mode,
				Action:          arec.Action.String(),
				ChangedRows:     arec.SourceRowsChanged,
				FullScanRows:    arec.FullScanEstimate,
				AdaptiveWork:    aw,
				IncrementalWork: iw,
				FullWork:        fw,
			})
		}
		best := reg.IncrementalWork
		if reg.FullWork < best {
			best = reg.FullWork
		}
		if best > 0 {
			reg.AdaptiveVsBestPct = float64(reg.AdaptiveWork-best) / float64(best) * 100
		}
		res.TotalSwitches += reg.Switches
		res.Regimes = append(res.Regimes, reg)
	}
	return res, nil
}

// ---------------------------------------------------------------------------
// helpers
// ---------------------------------------------------------------------------

// SortedOperatorCounts renders operator counts deterministically.
func SortedOperatorCounts(counts map[string]int) []string {
	keys := make([]string, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]string, len(keys))
	for i, k := range keys {
		out[i] = fmt.Sprintf("%s=%d", k, counts[k])
	}
	return out
}
