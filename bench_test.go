package dyntables

// Benchmarks regenerating every figure and table of the paper's evaluation
// (cmd/dtbench's package comment lists the experiments). Each benchmark runs the corresponding experiment and
// reports the headline metrics alongside timing, so
// `go test -bench=. -benchmem` reproduces the paper's results table by
// table. Shape assertions live in experiments_test.go; the benchmarks
// report the numbers.

import (
	"fmt"
	"testing"
	"time"

	"dyntables/internal/core"
	"dyntables/internal/isolation"
	"dyntables/internal/workload"
)

// BenchmarkFigure1PersistedTableSemantics builds the Figure 1 history and
// analyzes it: the DSG must be acyclic (anomaly masked).
func BenchmarkFigure1PersistedTableSemantics(b *testing.B) {
	for i := 0; i < b.N; i++ {
		h := isolation.NewHistory()
		_ = h.Write(1, "x", 1)
		h.Commit(1)
		_ = h.Read(3, "x", 1)
		_ = h.Write(3, "y", 3)
		h.Commit(3)
		_ = h.Write(2, "x", 2)
		h.Commit(2)
		_ = h.Read(4, "x", 2)
		_ = h.Write(4, "y", 4)
		h.Commit(4)
		_ = h.Read(5, "y", 3)
		_ = h.Read(5, "x", 2)
		h.Commit(5)
		p := h.Analyze()
		if p.G2 {
			b.Fatal("Figure 1 must be acyclic")
		}
	}
}

// BenchmarkFigure2DerivationDSG builds the Figure 2 history: derivations
// must expose the G2 cycle.
func BenchmarkFigure2DerivationDSG(b *testing.B) {
	for i := 0; i < b.N; i++ {
		h := isolation.NewHistory()
		_ = h.Write(1, "x", 1)
		h.Commit(1)
		_ = h.Derive(3, "y", 3, isolation.V("x", 1))
		h.Commit(3)
		_ = h.Write(2, "x", 2)
		h.Commit(2)
		_ = h.Derive(4, "y", 4, isolation.V("x", 2))
		h.Commit(4)
		_ = h.Read(5, "y", 3)
		_ = h.Read(5, "x", 2)
		h.Commit(5)
		p := h.Analyze()
		if !p.G2 || !p.GSingle {
			b.Fatal("Figure 2 must exhibit G2/G-single")
		}
	}
}

// BenchmarkFigure4LagSawtooth simulates the lag sawtooth and reports the
// worst observed peak lag against the target.
func BenchmarkFigure4LagSawtooth(b *testing.B) {
	target := 10 * time.Minute
	for i := 0; i < b.N; i++ {
		res, err := RunLagSawtooth(target, 1)
		if err != nil {
			b.Fatal(err)
		}
		var worst time.Duration
		for _, p := range res.Points[1:] {
			if p.Peak > worst {
				worst = p.Peak
			}
		}
		b.ReportMetric(worst.Seconds(), "peak-lag-s")
		b.ReportMetric(target.Seconds(), "target-lag-s")
		b.ReportMetric(float64(len(res.Points)), "commits")
	}
}

// benchFleet runs the shared fleet simulation once per benchmark run and
// caches the result (the population statistics are deterministic per
// seed).
var fleetCache *FleetResult

func benchFleet(b *testing.B) *FleetResult {
	b.Helper()
	if fleetCache == nil {
		cfg := DefaultFleetConfig
		cfg.DTs = 40
		cfg.Hours = 4
		res, err := RunFleet(cfg)
		if err != nil {
			b.Fatal(err)
		}
		fleetCache = res
	}
	return fleetCache
}

// BenchmarkFigure5TargetLagDistribution reports the lag-bucket shares of
// the simulated fleet.
func BenchmarkFigure5TargetLagDistribution(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := benchFleet(b)
		b.ReportMetric(workload.LagShare(res.Lags, 0, 5*time.Minute)*100, "pct-under-5m")
		b.ReportMetric(workload.LagShare(res.Lags, 5*time.Minute, 16*time.Hour)*100, "pct-middle")
		b.ReportMetric(workload.LagShare(res.Lags, 16*time.Hour, 1<<62)*100, "pct-over-16h")
	}
}

// BenchmarkFigure6OperatorFrequency reports the operator mix of the
// fleet's defining queries and the incremental-mode share.
func BenchmarkFigure6OperatorFrequency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := benchFleet(b)
		total := float64(res.Created)
		b.ReportMetric(float64(res.OperatorCounts["InnerJoin"]+res.OperatorCounts["OuterJoin"])/total*100, "pct-join")
		b.ReportMetric(float64(res.OperatorCounts["Aggregate"])/total*100, "pct-aggregate")
		b.ReportMetric(float64(res.OperatorCounts["Window"])/total*100, "pct-window")
		b.ReportMetric(res.IncrementalModeShare*100, "pct-incremental-mode")
	}
}

// BenchmarkRefreshActionMix reports the §6.3 refresh-action shares.
func BenchmarkRefreshActionMix(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := benchFleet(b)
		b.ReportMetric(res.ActionShare(core.ActionNoData)*100, "pct-no-data")
		b.ReportMetric(res.ActionShare(core.ActionIncremental)*100, "pct-incremental")
		b.ReportMetric(res.ActionShare(core.ActionFull)*100, "pct-full")
	}
}

// BenchmarkChangedRowFraction reports the §6.3 change-volume buckets.
func BenchmarkChangedRowFraction(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := benchFleet(b)
		b.ReportMetric(res.ChangeFractionShare(0, 0.01)*100, "pct-under-1pct")
		b.ReportMetric(res.ChangeFractionShare(0.01, 0.10)*100, "pct-1-10pct")
		b.ReportMetric(res.ChangeFractionShare(0.10, 1e18)*100, "pct-over-10pct")
	}
}

// BenchmarkIncrementalVsFullCrossover sweeps churn fractions and reports
// the crossover point where full refresh work matches incremental.
func BenchmarkIncrementalVsFullCrossover(b *testing.B) {
	fractions := []float64{0.01, 0.10, 0.50, 1.0}
	for i := 0; i < b.N; i++ {
		points, err := RunCrossover(2000, fractions)
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range points {
			ratio := float64(p.FullWork) / float64(p.IncrementalWork)
			b.ReportMetric(ratio, fmt.Sprintf("full/incr@%.0f%%", p.ChurnFraction*100))
		}
	}
}

// BenchmarkInitializationStrategy reports refresh counts for chained
// creation under both strategies at depth 6.
func BenchmarkInitializationStrategy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := RunInitStrategy(6)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.ReuseCount), "refreshes-reuse")
		b.ReportMetric(float64(res.NaiveCount), "refreshes-naive")
	}
}

// BenchmarkSkipCatchUp reports work saved by skip-on-overlap scheduling.
func BenchmarkSkipCatchUp(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := RunSkipExperiment(1)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.WithSkips.Skips), "skips")
		b.ReportMetric(res.WithSkips.Billed.Seconds(), "billed-s-with-skips")
		b.ReportMetric(res.WithoutSkips.Billed.Seconds(), "billed-s-without")
	}
}

// BenchmarkCanonicalPeriodAlignment reports upstream repair refreshes
// under canonical vs exact periods.
func BenchmarkCanonicalPeriodAlignment(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := RunAlignment(2)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.CanonicalExtraRefreshes), "repairs-canonical")
		b.ReportMetric(float64(res.ExactExtraRefreshes), "repairs-exact")
	}
}

// BenchmarkOuterJoinDerivative reports subplan differentiation counts for
// 4 nested LEFT JOINs under both strategies.
func BenchmarkOuterJoinDerivative(b *testing.B) {
	for i := 0; i < b.N; i++ {
		points, err := RunOuterJoinAblation(4)
		if err != nil {
			b.Fatal(err)
		}
		last := points[len(points)-1]
		b.ReportMetric(float64(last.DirectSubplans), "subplans-direct@4joins")
		b.ReportMetric(float64(last.ExpandedSubplans), "subplans-expanded@4joins")
	}
}

// BenchmarkWindowDerivative reports partitions recomputed when 2 of 128
// partitions change.
func BenchmarkWindowDerivative(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := RunWindowAblation(128, 2)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.ChangedRecomputed), "partitions-changed-strategy")
		b.ReportMetric(float64(res.FullRecomputed), "partitions-full-recompute")
	}
}

// BenchmarkDVSOracle runs the §6.1 randomized property test.
func BenchmarkDVSOracle(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := RunDVSOracle(10, 3, int64(i)+1)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Violations) > 0 {
			b.Fatalf("DVS violations: %v", res.Violations)
		}
		b.ReportMetric(float64(res.Checks), "dvs-checks")
	}
}

// ---------------------------------------------------------------------------
// engine micro-benchmarks (throughput context for the experiment numbers)
// ---------------------------------------------------------------------------

// BenchmarkIncrementalRefreshSmallDelta measures one incremental refresh
// of an aggregation DT after a single-row change in a 10k-row source.
func BenchmarkIncrementalRefreshSmallDelta(b *testing.B) {
	e := New()
	e.MustExec(`CREATE WAREHOUSE wh`)
	e.MustExec(`CREATE TABLE src (k INT, v INT)`)
	batch := ""
	for i := 0; i < 10000; i++ {
		if batch != "" {
			batch += ", "
		}
		batch += fmt.Sprintf("(%d, %d)", i, i%500)
		if (i+1)%500 == 0 {
			e.MustExec(`INSERT INTO src VALUES ` + batch)
			batch = ""
		}
	}
	e.MustExec(`CREATE DYNAMIC TABLE d TARGET_LAG = '1 hour' WAREHOUSE = wh
	            AS SELECT v, count(*) c, sum(k) s FROM src GROUP BY v`)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.MustExec(fmt.Sprintf(`INSERT INTO src VALUES (%d, %d)`, 20000+i, i%500))
		e.AdvanceTime(time.Minute)
		if err := e.ManualRefresh("d"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFullRefresh10k measures a full recompute of the same DT shape.
func BenchmarkFullRefresh10k(b *testing.B) {
	e := New()
	e.MustExec(`CREATE WAREHOUSE wh`)
	e.MustExec(`CREATE TABLE src (k INT, v INT)`)
	batch := ""
	for i := 0; i < 10000; i++ {
		if batch != "" {
			batch += ", "
		}
		batch += fmt.Sprintf("(%d, %d)", i, i%500)
		if (i+1)%500 == 0 {
			e.MustExec(`INSERT INTO src VALUES ` + batch)
			batch = ""
		}
	}
	e.MustExec(`CREATE DYNAMIC TABLE d TARGET_LAG = '1 hour' WAREHOUSE = wh REFRESH_MODE = FULL
	            AS SELECT v, count(*) c, sum(k) s FROM src GROUP BY v`)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.MustExec(fmt.Sprintf(`INSERT INTO src VALUES (%d, %d)`, 20000+i, i%500))
		e.AdvanceTime(time.Minute)
		if err := e.ManualRefresh("d"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQueryThroughJoin measures ad-hoc query latency over the engine.
func BenchmarkQueryThroughJoin(b *testing.B) {
	e := New()
	e.MustExec(`CREATE WAREHOUSE wh`)
	e.MustExec(`CREATE TABLE l (k INT, v INT)`)
	e.MustExec(`CREATE TABLE r (k INT, w INT)`)
	for i := 0; i < 1000; i += 500 {
		batch := ""
		for j := i; j < i+500; j++ {
			if batch != "" {
				batch += ", "
			}
			batch += fmt.Sprintf("(%d, %d)", j, j%37)
		}
		e.MustExec(`INSERT INTO l VALUES ` + batch)
		e.MustExec(`INSERT INTO r VALUES ` + batch)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Query(`SELECT l.k, r.w FROM l JOIN r ON l.k = r.k WHERE l.v < 10`); err != nil {
			b.Fatal(err)
		}
	}
}
