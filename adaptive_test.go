package dyntables

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"dyntables/internal/core"
	"dyntables/internal/sql"
)

// These tests drive the adaptive REFRESH_MODE=AUTO chooser end to end:
// a join whose small dimension side churns has real change
// amplification (each changed dim row costs a snapshot scan of the fact
// side plus fanned-out output deltas), so incremental refreshes
// genuinely cost more than full recomputes at high churn and less at
// low churn — the §3.3.2 crossover.

// buildJoinFixture creates facts (4000 rows) ⋈ dims (50 rows) with a
// dynamic table d over the join, declared with the given REFRESH_MODE.
func buildJoinFixture(t *testing.T, e *Engine, mode string) {
	t.Helper()
	s := e.NewSession()
	s.MustExec(`CREATE WAREHOUSE wh`)
	s.MustExec(`CREATE TABLE facts (k INT, v INT)`)
	s.MustExec(`CREATE TABLE dims (k INT, name INT)`)
	batch := ""
	for i := 0; i < 4000; i++ {
		if batch != "" {
			batch += ", "
		}
		batch += fmt.Sprintf("(%d, %d)", i, i%97)
		if (i+1)%500 == 0 {
			s.MustExec(`INSERT INTO facts VALUES ` + batch)
			batch = ""
		}
	}
	for i := 0; i < 50; i++ {
		s.MustExec(fmt.Sprintf(`INSERT INTO dims VALUES (%d, %d)`, i, i))
	}
	s.MustExec(`CREATE DYNAMIC TABLE d TARGET_LAG = '1 hour' WAREHOUSE = wh REFRESH_MODE = ` + mode + `
	            AS SELECT f.k, f.v, d.name FROM facts f JOIN dims d ON f.v % 50 = d.k`)
}

// churnDims updates the first n dim rows and refreshes d once.
func churnDims(t *testing.T, e *Engine, n int) core.RefreshRecord {
	t.Helper()
	e.MustExec(fmt.Sprintf(`UPDATE dims SET name = name + 1 WHERE k < %d`, n))
	e.AdvanceTime(time.Minute)
	if err := e.ManualRefresh("d"); err != nil {
		t.Fatal(err)
	}
	dt, err := e.DynamicTableHandle("d")
	if err != nil {
		t.Fatal(err)
	}
	rec, ok := dt.LastRecord()
	if !ok {
		t.Fatal("no refresh record")
	}
	return rec
}

func TestAdaptiveSwitchesAcrossTheCrossover(t *testing.T) {
	// A churn ramp across the crossover, with AUTO beside DTs pinned to
	// each mode over the same changes: AUTO switches at most once per
	// regime, and at both ends of the ramp its work (rows scanned plus
	// rows written) stays within 15% of the cheaper pinned mode.
	t.Run("ramp", func(t *testing.T) {
		modes := []string{"AUTO", "INCREMENTAL", "FULL"}
		engines := make([]*Engine, len(modes))
		for i, mode := range modes {
			engines[i] = New()
			buildJoinFixture(t, engines[i], mode)
		}
		lastMode := sql.RefreshAuto // no refresh yet: effective modes are never AUTO
		for _, regime := range []struct {
			name         string
			churn, steps int
		}{{"low", 1, 12}, {"crossover", 20, 10}, {"high", 40, 12}} {
			work := make([]int64, len(modes))
			switches := 0
			for step := 0; step < regime.steps; step++ {
				for i, e := range engines {
					rec := churnDims(t, e, regime.churn)
					work[i] += rec.SourceRowsScanned + int64(rec.Inserted+rec.Deleted)
					if i > 0 {
						continue
					}
					if lastMode != sql.RefreshAuto && rec.EffectiveMode != lastMode {
						switches++
					}
					lastMode = rec.EffectiveMode
				}
			}
			t.Logf("%s: work AUTO %d, INCREMENTAL %d, FULL %d; %d switches", regime.name, work[0], work[1], work[2], switches)
			if switches > 1 {
				t.Errorf("%s: AUTO switched mode %d times, want at most 1", regime.name, switches)
			}
			if regime.name == "crossover" {
				continue
			}
			best := min(work[1], work[2])
			if over := float64(work[0]-best) / float64(best); over > 0.15 {
				t.Errorf("%s: AUTO work %d is %.0f%% above the cheaper pinned mode (INCREMENTAL %d, FULL %d), want at most 15%%",
					regime.name, work[0], over*100, work[1], work[2])
			}
		}
	})

	e := New()
	buildJoinFixture(t, e, "AUTO")
	dt, err := e.DynamicTableHandle("d")
	if err != nil {
		t.Fatal(err)
	}

	// Cold start: the first real refresh defaults to INCREMENTAL even
	// under heavy churn (no history to smooth over).
	rec := churnDims(t, e, 40)
	if rec.Action != core.ActionIncremental {
		t.Fatalf("cold-start refresh action = %s, want INCREMENTAL", rec.Action)
	}
	if !strings.Contains(rec.ModeReason, "cold start") {
		t.Fatalf("cold-start reason = %q", rec.ModeReason)
	}
	if rec.SourceRowsChanged != 80 || rec.FullScanEstimate == 0 {
		t.Fatalf("cost signals: changed=%d full=%d", rec.SourceRowsChanged, rec.FullScanEstimate)
	}

	// Sustained high churn: once the measured amplification is in the
	// history, the chooser switches to FULL — and only once.
	switches := 0
	var modes []sql.RefreshMode
	for i := 0; i < 4; i++ {
		rec = churnDims(t, e, 40)
		modes = append(modes, rec.EffectiveMode)
	}
	for i := 1; i < len(modes); i++ {
		if modes[i] != modes[i-1] {
			switches++
		}
	}
	if modes[len(modes)-1] != sql.RefreshFull {
		t.Fatalf("high churn modes = %v, want ending in FULL", modes)
	}
	if rec.Action != core.ActionFull {
		t.Fatalf("high-churn action = %s, want FULL", rec.Action)
	}
	if switches > 1 {
		t.Fatalf("mode flapped under steady high churn: %v", modes)
	}
	if mode, reason := dt.ModeDecision(); mode != sql.RefreshFull || !strings.Contains(reason, "adaptive") {
		t.Fatalf("decision = %s (%q), want adaptive FULL", mode, reason)
	}

	// Churn drops: the chooser switches back to INCREMENTAL using the
	// amplification learned before the FULL period.
	var back bool
	for i := 0; i < 6; i++ {
		rec = churnDims(t, e, 1)
		if rec.EffectiveMode == sql.RefreshIncremental {
			back = true
			break
		}
	}
	if !back {
		t.Fatalf("chooser never switched back to INCREMENTAL at low churn (last reason %q)", rec.ModeReason)
	}
	if err := e.CheckDVS("d"); err != nil {
		t.Fatalf("DVS violated across mode switches: %v", err)
	}
}

func TestAdaptiveDecisionIsQueryableAndExplained(t *testing.T) {
	e := New()
	buildJoinFixture(t, e, "AUTO")
	for i := 0; i < 3; i++ {
		churnDims(t, e, 40)
	}
	s := e.NewSession()

	// DYNAMIC_TABLE_REFRESH_HISTORY surfaces the per-refresh effective
	// mode, the reason and the chooser's cost signals.
	res, err := s.Query(`
		SELECT action, effective_mode, mode_reason, changed_rows, full_scan_rows
		FROM INFORMATION_SCHEMA.DYNAMIC_TABLE_REFRESH_HISTORY
		WHERE dt_name = 'd' AND effective_mode = 'FULL' ORDER BY data_ts`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) == 0 {
		t.Fatal("no FULL rows in refresh history after the switch")
	}
	lastReason := res.Rows[len(res.Rows)-1][2].Str()
	if !strings.Contains(lastReason, "adaptive") {
		t.Fatalf("mode_reason = %q, want an adaptive explanation", lastReason)
	}
	if res.Rows[0][3].Int() != 80 {
		t.Fatalf("changed_rows = %v, want 80", res.Rows[0][3])
	}

	// DYNAMIC_TABLES exposes the live decision.
	res, err = s.Query(`SELECT refresh_mode, declared_mode, mode_reason
	                    FROM INFORMATION_SCHEMA.DYNAMIC_TABLES WHERE name = 'd'`)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Rows[0][0].Str(); got != "FULL" {
		t.Fatalf("refresh_mode = %s, want FULL", got)
	}
	if got := res.Rows[0][1].Str(); got != "AUTO" {
		t.Fatalf("declared_mode = %s, want AUTO", got)
	}

	// EXPLAIN DYNAMIC TABLE renders the same decision.
	out, err := s.Exec(`EXPLAIN DYNAMIC TABLE d`)
	if err != nil {
		t.Fatal(err)
	}
	text := ""
	for _, row := range out.Rows {
		text += row[0].Str() + "\n"
	}
	for _, want := range []string{"declared_mode: AUTO", "effective_mode: FULL",
		"mode_reason: adaptive", "adaptive_refresh: enabled", "plan:"} {
		if !strings.Contains(text, want) {
			t.Fatalf("EXPLAIN DYNAMIC TABLE missing %q:\n%s", want, text)
		}
	}

	// Describe carries the same fields.
	st, err := s.Describe("d")
	if err != nil {
		t.Fatal(err)
	}
	if st.DeclaredMode != "AUTO" || st.EffectiveMode != "FULL" || st.ModeReason == "" {
		t.Fatalf("describe: %+v", st)
	}
}

func TestAlterSystemAdaptiveRefreshGate(t *testing.T) {
	e := New()
	buildJoinFixture(t, e, "AUTO")
	s := e.NewSession()

	// Disabled: AUTO keeps its static resolution under any churn.
	s.MustExec(`ALTER SYSTEM SET ADAPTIVE_REFRESH = 0`)
	if e.AdaptiveChooser().Enabled() {
		t.Fatal("gate did not disable the chooser")
	}
	for i := 0; i < 4; i++ {
		if rec := churnDims(t, e, 40); rec.Action != core.ActionIncremental {
			t.Fatalf("disabled chooser: action = %s, want INCREMENTAL", rec.Action)
		}
	}

	// Re-enable with a custom window; the history recorded while
	// disabled immediately informs the first adaptive decision.
	res := s.MustExec(`ALTER SYSTEM SET ADAPTIVE_REFRESH = 3`)
	if !strings.Contains(res.Message, "window 3") {
		t.Fatalf("message = %q", res.Message)
	}
	rec := churnDims(t, e, 40)
	if rec.EffectiveMode != sql.RefreshFull {
		t.Fatalf("re-enabled chooser: mode = %s (%s), want FULL", rec.EffectiveMode, rec.ModeReason)
	}

	if _, err := s.Exec(`ALTER SYSTEM SET ADAPTIVE_REFRESH = -1`); err == nil {
		t.Fatal("negative ADAPTIVE_REFRESH should fail")
	}

	// Disabling after a sticky FULL decision: reporting must agree with
	// what refreshes actually run (the static resolution), not the
	// dormant sticky decision — and re-enabling resumes from it.
	dt, err := e.DynamicTableHandle("d")
	if err != nil {
		t.Fatal(err)
	}
	if dt.CurrentMode() != sql.RefreshFull {
		t.Fatal("setup: no sticky FULL decision")
	}
	s.MustExec(`ALTER SYSTEM SET ADAPTIVE_REFRESH = 0`)
	if mode, reason := dt.ModeDecision(); mode != sql.RefreshIncremental || strings.Contains(reason, "adaptive") {
		t.Fatalf("disabled chooser reports %s (%q), want the static resolution", mode, reason)
	}
	if rec := churnDims(t, e, 40); rec.Action != core.ActionIncremental || rec.EffectiveMode != sql.RefreshIncremental {
		t.Fatalf("disabled chooser ran %s in mode %s", rec.Action, rec.EffectiveMode)
	}
	s.MustExec(`ALTER SYSTEM SET ADAPTIVE_REFRESH = 1`)
	if mode, _ := dt.ModeDecision(); mode != sql.RefreshFull {
		t.Fatalf("re-enabled chooser lost the sticky decision: %s", mode)
	}

	// Config-level disable.
	e2 := New(WithConfig(Config{AdaptiveWindow: -1}))
	if e2.AdaptiveChooser().Enabled() {
		t.Fatal("Config.AdaptiveWindow < 0 should disable the chooser")
	}
	e3 := New(WithConfig(Config{AdaptiveWindow: 3}))
	if !e3.AdaptiveChooser().Enabled() || e3.AdaptiveChooser().Config().Window != 3 {
		t.Fatalf("Config.AdaptiveWindow = 3: enabled=%v window=%d",
			e3.AdaptiveChooser().Enabled(), e3.AdaptiveChooser().Config().Window)
	}
}

func TestAlterRefreshModePinOverridesChooser(t *testing.T) {
	e := New()
	buildJoinFixture(t, e, "AUTO")
	s := e.NewSession()
	dt, err := e.DynamicTableHandle("d")
	if err != nil {
		t.Fatal(err)
	}

	// Drive the chooser to FULL, then pin back to INCREMENTAL: the pin
	// wins over the adaptive decision.
	for i := 0; i < 3; i++ {
		churnDims(t, e, 40)
	}
	if dt.CurrentMode() != sql.RefreshFull {
		t.Fatal("setup: chooser did not switch to FULL")
	}
	s.MustExec(`ALTER DYNAMIC TABLE d SET REFRESH_MODE = INCREMENTAL`)
	if mode, reason := dt.ModeDecision(); mode != sql.RefreshIncremental || reason != "declared INCREMENTAL" {
		t.Fatalf("after pin: %s (%q)", mode, reason)
	}
	if rec := churnDims(t, e, 40); rec.Action != core.ActionIncremental {
		t.Fatalf("pinned DT refreshed with %s", rec.Action)
	}

	// Back to AUTO: adaptive control resumes from a cold start and
	// switches again on the recorded high-churn history.
	s.MustExec(`ALTER DYNAMIC TABLE d SET REFRESH_MODE = AUTO`)
	if mode, _ := dt.ModeDecision(); mode != sql.RefreshIncremental {
		t.Fatalf("AUTO re-declaration mode = %s, want static INCREMENTAL", mode)
	}
	var full bool
	for i := 0; i < 3; i++ {
		if rec := churnDims(t, e, 40); rec.EffectiveMode == sql.RefreshFull {
			full = true
		}
	}
	if !full {
		t.Fatal("adaptive control did not resume after AUTO re-declaration")
	}

	// Pinning INCREMENTAL onto a non-incrementalizable query fails.
	s.MustExec(`CREATE DYNAMIC TABLE agg TARGET_LAG = '1 hour' WAREHOUSE = wh
	            AS SELECT count(*) n FROM facts`)
	if _, err := s.Exec(`ALTER DYNAMIC TABLE agg SET REFRESH_MODE = INCREMENTAL`); err == nil {
		t.Fatal("INCREMENTAL pin on a scalar aggregate should fail")
	}
}

func TestStaticReResolutionAfterUpstreamDDL(t *testing.T) {
	// Upstream DDL can make an AUTO plan non-incrementalizable after
	// creation. The refresh re-resolves to FULL, and every reporting
	// surface must agree — including dropping a sticky adaptive
	// INCREMENTAL decision made for the old plan.
	e := New()
	s := e.NewSession()
	s.MustExec(`CREATE WAREHOUSE wh`)
	s.MustExec(`CREATE TABLE facts (k INT, v INT)`)
	batch := ""
	for i := 0; i < 1200; i++ {
		if batch != "" {
			batch += ", "
		}
		batch += fmt.Sprintf("(%d, %d)", i, i%7)
		if (i+1)%400 == 0 {
			s.MustExec(`INSERT INTO facts VALUES ` + batch)
			batch = ""
		}
	}
	s.MustExec(`CREATE VIEW v AS SELECT k, v FROM facts`)
	s.MustExec(`CREATE DYNAMIC TABLE d TARGET_LAG = '1 hour' WAREHOUSE = wh
	            AS SELECT k, v FROM v`)
	refresh := func() core.RefreshRecord {
		s.MustExec(`INSERT INTO facts VALUES (9999, 1)`)
		e.AdvanceTime(time.Minute)
		if err := e.ManualRefresh("d"); err != nil {
			t.Fatal(err)
		}
		dt, err := e.DynamicTableHandle("d")
		if err != nil {
			t.Fatal(err)
		}
		rec, _ := dt.LastRecord()
		return rec
	}
	if rec := refresh(); rec.Action != core.ActionIncremental {
		t.Fatalf("setup refresh action = %s, want INCREMENTAL", rec.Action)
	}

	// Replace the view with a non-incrementalizable query (ORDER BY).
	s.MustExec(`CREATE OR REPLACE VIEW v AS SELECT k, v FROM facts ORDER BY k LIMIT 10`)
	evoRec := refresh()
	if evoRec.Action != core.ActionReinitialize {
		t.Fatalf("post-DDL refresh action = %s, want REINITIALIZE", evoRec.Action)
	}
	// The reinitialization record must not carry the just-invalidated
	// adaptive decision's reason — that decision was for the old plan.
	if strings.Contains(evoRec.ModeReason, "adaptive") {
		t.Fatalf("REINITIALIZE record carries stale adaptive reason %q", evoRec.ModeReason)
	}
	rec := refresh()
	if rec.Action != core.ActionFull || rec.EffectiveMode != sql.RefreshFull {
		t.Fatalf("refresh over non-incrementalizable plan: action=%s mode=%s", rec.Action, rec.EffectiveMode)
	}
	dt, err := e.DynamicTableHandle("d")
	if err != nil {
		t.Fatal(err)
	}
	mode, reason := dt.ModeDecision()
	if mode != sql.RefreshFull || !strings.Contains(reason, "AUTO:") || strings.Contains(reason, "adaptive") {
		t.Fatalf("reported decision = %s (%q), want static FULL re-resolution", mode, reason)
	}
}

func TestAdaptiveDecisionSurvivesRecovery(t *testing.T) {
	dir := t.TempDir()
	e, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	buildJoinFixture(t, e, "AUTO")
	for i := 0; i < 3; i++ {
		churnDims(t, e, 40)
	}
	dt, err := e.DynamicTableHandle("d")
	if err != nil {
		t.Fatal(err)
	}
	wantMode, wantReason := dt.ModeDecision()
	if wantMode != sql.RefreshFull {
		t.Fatal("setup: chooser did not switch to FULL before the crash")
	}

	// Crash without a final checkpoint: the decision must be replayed
	// from the frontier WAL records.
	if err := e.crash(); err != nil {
		t.Fatal(err)
	}
	e2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	dt2, err := e2.DynamicTableHandle("d")
	if err != nil {
		t.Fatal(err)
	}
	gotMode, gotReason := dt2.ModeDecision()
	if gotMode != wantMode || gotReason != wantReason {
		t.Fatalf("after WAL recovery: %s (%q), want %s (%q)", gotMode, gotReason, wantMode, wantReason)
	}
	// The recovered history keeps feeding the window: the next
	// high-churn refresh stays FULL without relearning.
	if rec := churnDims(t, e2, 40); rec.EffectiveMode != sql.RefreshFull {
		t.Fatalf("post-recovery refresh mode = %s (%s)", rec.EffectiveMode, rec.ModeReason)
	}

	// Clean close writes a checkpoint: the decision must also survive
	// the snapshot path, and the chooser must still be able to switch
	// back on recovered history alone.
	if err := e2.Close(); err != nil {
		t.Fatal(err)
	}
	e3, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer e3.Close()
	dt3, err := e3.DynamicTableHandle("d")
	if err != nil {
		t.Fatal(err)
	}
	if mode, _ := dt3.ModeDecision(); mode != sql.RefreshFull {
		t.Fatalf("after snapshot recovery: mode = %s, want FULL", mode)
	}
	var back bool
	for i := 0; i < 6; i++ {
		if rec := churnDims(t, e3, 1); rec.EffectiveMode == sql.RefreshIncremental {
			back = true
			break
		}
	}
	if !back {
		t.Fatal("recovered chooser never switched back at low churn")
	}
	if err := e3.CheckDVS("d"); err != nil {
		t.Fatal(err)
	}
}
