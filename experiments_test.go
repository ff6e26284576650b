package dyntables

import (
	"testing"
	"time"

	"dyntables/internal/core"
	"dyntables/internal/workload"
)

// These tests assert the *shape* properties of every experiment: who wins,
// by roughly what factor, and where crossovers fall (the experiment list
// is in cmd/dtbench's package comment).

func TestLagSawtoothShape(t *testing.T) {
	res, err := RunLagSawtooth(10*time.Minute, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) < 10 {
		t.Fatalf("too few sawtooth points: %d", len(res.Points))
	}
	for i, p := range res.Points {
		// Peak exceeds trough (the sawtooth drop at each commit).
		if p.Peak < p.Trough {
			t.Errorf("point %d: peak %v < trough %v", i, p.Peak, p.Trough)
		}
		if p.Trough < 0 {
			t.Errorf("point %d: negative trough %v", i, p.Trough)
		}
		// The scheduler keeps peak lag within the target (steady state).
		if i > 0 && p.Peak > res.TargetLag {
			t.Errorf("point %d: peak lag %v exceeds target %v", i, p.Peak, res.TargetLag)
		}
		// Peak ≈ trough + period (lag rises 1s/s between commits).
		if i > 0 {
			rise := p.Peak - res.Points[i-1].Trough
			drift := rise - res.Period
			if drift < -res.Period/2 || drift > res.Period/2 {
				t.Errorf("point %d: rise %v far from period %v", i, rise, res.Period)
			}
		}
	}
}

func TestFleetStatisticsShape(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet simulation in -short mode")
	}
	cfg := DefaultFleetConfig
	cfg.DTs = 40
	cfg.Hours = 4
	res, err := RunFleet(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Created != cfg.DTs {
		t.Fatalf("created %d of %d DTs", res.Created, cfg.DTs)
	}

	// Figure 5 shape.
	under5m := workload.LagShare(res.Lags, 0, 5*time.Minute)
	over16h := workload.LagShare(res.Lags, 16*time.Hour, 1<<62)
	if under5m < 0.05 || under5m > 0.40 {
		t.Errorf("share under 5m = %.2f, want ≈0.18", under5m)
	}
	if over16h < 0.10 || over16h > 0.45 {
		t.Errorf("share ≥16h = %.2f, want ≈0.26", over16h)
	}

	// §6.3: most DTs incremental (paper: ~70%).
	if res.IncrementalModeShare < 0.5 {
		t.Errorf("incremental share %.2f, want majority", res.IncrementalModeShare)
	}

	// §6.3: NO_DATA dominates refreshes (paper: >90%).
	if s := res.ActionShare(core.ActionNoData); s < 0.6 {
		t.Errorf("NO_DATA share %.2f, want dominant", s)
	}

	// Figure 6: joins and aggregates common among definitions.
	if res.OperatorCounts["Filter"] == 0 || res.OperatorCounts["Aggregate"] == 0 {
		t.Errorf("operator counts: %v", res.OperatorCounts)
	}
	inner := res.OperatorCounts["InnerJoin"]
	outer := res.OperatorCounts["OuterJoin"]
	if inner+outer == 0 || outer > inner {
		t.Errorf("join mix off: inner=%d outer=%d", inner, outer)
	}

	// §6.3 change volume: small changes dominate incremental refreshes.
	if len(res.ChangeFractions) > 5 {
		small := res.ChangeFractionShare(0, 0.01)
		large := res.ChangeFractionShare(0.10, 1e9)
		if small <= large {
			t.Errorf("small-change refreshes (%.2f) should outnumber large (%.2f)", small, large)
		}
	}
	if res.Credits <= 0 {
		t.Error("no warehouse spend recorded")
	}
}

func TestCrossoverShape(t *testing.T) {
	points, err := RunCrossover(4000, []float64{0.001, 0.01, 0.10, 0.50, 1.0})
	if err != nil {
		t.Fatal(err)
	}
	// Low churn: incremental wins by a wide margin.
	lo := points[0]
	if lo.IncrementalWork*5 > lo.FullWork {
		t.Errorf("at %.3f churn incremental (%d) should be ≪ full (%d)",
			lo.ChurnFraction, lo.IncrementalWork, lo.FullWork)
	}
	// High churn: full refresh is at least competitive.
	hi := points[len(points)-1]
	if hi.IncrementalWork < hi.FullWork {
		t.Errorf("at full churn incremental (%d) should not beat full (%d)",
			hi.IncrementalWork, hi.FullWork)
	}
	// Incremental work grows monotonically with churn (linear variable
	// cost, §3.3.2).
	for i := 1; i < len(points); i++ {
		if points[i].IncrementalWork < points[i-1].IncrementalWork {
			t.Errorf("incremental work not monotone: %v", points)
		}
	}
}

func TestInitStrategyQuadraticVsLinear(t *testing.T) {
	res, err := RunInitStrategy(6)
	if err != nil {
		t.Fatal(err)
	}
	if res.ReuseCount != res.Depth {
		t.Errorf("reuse strategy: %d refreshes for depth %d (want equal)", res.ReuseCount, res.Depth)
	}
	// Naive: sum over i of i refreshes ≈ d(d+1)/2.
	expectedNaive := res.Depth * (res.Depth + 1) / 2
	if res.NaiveCount < expectedNaive-res.Depth {
		t.Errorf("naive strategy: %d refreshes, want ≈%d (quadratic)", res.NaiveCount, expectedNaive)
	}
	if res.NaiveCount <= res.ReuseCount {
		t.Errorf("naive (%d) must exceed reuse (%d)", res.NaiveCount, res.ReuseCount)
	}
}

func TestSkipExperimentShape(t *testing.T) {
	res, err := RunSkipExperiment(2)
	if err != nil {
		t.Fatal(err)
	}
	if res.WithSkips.Skips == 0 {
		t.Errorf("overloaded DT should skip: %+v", res.WithSkips)
	}
	if !res.WithSkips.DVSHolds || !res.WithoutSkips.DVSHolds {
		t.Error("DVS must hold under both policies")
	}
	// Skipping reduces total refreshes and billed time (fixed costs).
	if res.WithSkips.Refreshes >= res.WithoutSkips.Refreshes {
		t.Errorf("skips should reduce refresh count: %d vs %d",
			res.WithSkips.Refreshes, res.WithoutSkips.Refreshes)
	}
	if res.WithSkips.Billed >= res.WithoutSkips.Billed {
		t.Errorf("skips should reduce billed time: %v vs %v",
			res.WithSkips.Billed, res.WithoutSkips.Billed)
	}
}

func TestAlignmentShape(t *testing.T) {
	res, err := RunAlignment(3)
	if err != nil {
		t.Fatal(err)
	}
	if res.CanonicalExtraRefreshes != 0 {
		t.Errorf("canonical periods should need no repair refreshes, got %d",
			res.CanonicalExtraRefreshes)
	}
	if res.ExactExtraRefreshes == 0 {
		t.Error("exact periods should force upstream repair refreshes")
	}
}

func TestOuterJoinAblationShape(t *testing.T) {
	points, err := RunOuterJoinAblation(4)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range points {
		if p.ExpandedSubplans <= p.DirectSubplans {
			t.Errorf("joins=%d: expansion (%d) should exceed direct (%d)",
				p.Joins, p.ExpandedSubplans, p.DirectSubplans)
		}
	}
	// Direct grows linearly; expansion super-linearly. Compare growth
	// ratios between the first and last points.
	first, last := points[0], points[len(points)-1]
	directGrowth := float64(last.DirectSubplans) / float64(first.DirectSubplans)
	expandedGrowth := float64(last.ExpandedSubplans) / float64(first.ExpandedSubplans)
	if expandedGrowth <= directGrowth {
		t.Errorf("expansion growth (%.1fx) should exceed direct growth (%.1fx)",
			expandedGrowth, directGrowth)
	}
}

func TestWindowAblationShape(t *testing.T) {
	res, err := RunWindowAblation(64, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.ChangedRecomputed != int64(res.TouchedPartitions) {
		t.Errorf("changed-partition strategy recomputed %d, want %d",
			res.ChangedRecomputed, res.TouchedPartitions)
	}
	if res.FullRecomputed < int64(res.Partitions) {
		t.Errorf("full strategy recomputed %d, want ≥%d", res.FullRecomputed, res.Partitions)
	}
}

func TestDVSOracleNoViolations(t *testing.T) {
	if testing.Short() {
		t.Skip("oracle run in -short mode")
	}
	res, err := RunDVSOracle(15, 4, 11)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Violations) != 0 {
		t.Fatalf("DVS violations: %v", res.Violations)
	}
	if res.Checks != res.DTsChecked*res.Rounds {
		t.Errorf("checks: %d", res.Checks)
	}
}
