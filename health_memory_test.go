package dyntables

import (
	"testing"
	"time"

	"dyntables/internal/health"
)

// TestHealthMemoryFollowsTheDT checks the health evaluator's hysteresis
// memory: it is kept for the DT object, not its name, so RENAME carries
// the DT's previous status, and an evaluation after DROP forgets it.
func TestHealthMemoryFollowsTheDT(t *testing.T) {
	eng, sess := obsFixture(t)
	grand := mustDT(t, eng, "grand")
	// Let grand's lag grow until its attainment sits in the hysteresis
	// band above the AT_RISK threshold: there the previous status decides
	// the new one.
	th := health.DefaultThresholds()
	for {
		stats, ok := eng.LagSLO("grand")
		if !ok || stats.Attainment < th.AtRiskAttainment {
			t.Fatalf("grand's attainment left the hysteresis band: %+v", stats)
		}
		if stats.Attainment < th.AtRiskAttainment+th.Hysteresis/2 {
			break
		}
		eng.AdvanceTime(time.Second)
	}
	statusOf := func(name string) health.Status {
		for _, rep := range eng.healthReports() {
			if rep.Name == name {
				return rep.Status
			}
		}
		t.Fatalf("DT_HEALTH has no row for %s", name)
		return ""
	}
	if got := statusOf("grand"); got != health.Healthy {
		t.Fatalf("grand coming from HEALTHY is %s, want HEALTHY", got)
	}

	// Remember grand as AT_RISK, then rename it: the renamed DT keeps
	// that memory, so the band holds it at AT_RISK.
	eng.healthMu.Lock()
	eng.healthPrev[grand] = health.AtRisk
	eng.healthMu.Unlock()
	sess.MustExec(`ALTER DYNAMIC TABLE grand RENAME TO grand2`)
	if got := statusOf("grand2"); got != health.AtRisk {
		t.Errorf("grand2 after the rename is %s, want the AT_RISK grand had", got)
	}

	sess.MustExec(`DROP DYNAMIC TABLE grand2`)
	statusOf("totals")
	eng.healthMu.Lock()
	defer eng.healthMu.Unlock()
	if status, ok := eng.healthPrev[grand]; ok {
		t.Errorf("the dropped DT's status %s is still remembered", status)
	}
	if len(eng.healthPrev) != 1 {
		t.Errorf("health memory holds %d DTs, want only totals", len(eng.healthPrev))
	}
}
