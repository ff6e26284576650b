package dyntables

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"dyntables/internal/core"
	"dyntables/internal/ivm"
	"dyntables/internal/obs"
	"dyntables/internal/plan"
	"dyntables/internal/sql"
	"dyntables/internal/warehouse"
	"dyntables/internal/workload"
)

// This file implements the experiment harness that regenerates every
// figure and table of the paper's evaluation (cmd/dtbench's package
// comment lists the experiments). Each experiment returns a structured
// result that cmd/dtbench renders and experiments_test.go asserts shape
// properties over.

// ---------------------------------------------------------------------------
// E3 / Figure 4: lag sawtooth
// ---------------------------------------------------------------------------

// LagSawtoothResult is the Figure 4 series.
type LagSawtoothResult struct {
	TargetLag time.Duration
	Period    time.Duration
	Points    []obs.LagSample
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
		Points:    dt.LagSeries(),
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
	wh, _ := e.Warehouse("wh")
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
		wh, _ := e.Warehouse("wh")
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
