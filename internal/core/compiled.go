package core

import (
	"slices"

	"dyntables/internal/plan"
	"dyntables/internal/trace"
)

// compiledPlan is a DT's defining query parsed, bound and optimized once,
// tagged with the catalog DDL sequence it was bound at. Refreshes, the
// scheduler's graph walks and the observability graph all share it, so it
// is read-only once built: nothing may mutate the plan, its Deps or its
// scans.
type compiledPlan struct {
	bound *plan.Bound
	// fingerprint is the output schema's String(), the form the DT's
	// schemaFingerprint and its frontier records keep.
	fingerprint string
	// scans are the plan's scans; each holds the schema its table had at
	// bind time.
	scans []*plan.Scan
	// ups holds, for each scan, the DT whose contents it reads, or nil
	// for a base table: version resolution reads an upstream DT through
	// its data-timestamp mapping (§5.3).
	ups    []*DynamicTable
	ddlSeq int64
}

// current reports whether every scanned table still has the schema the
// plan was bound with. An upstream DT's schema changes when it
// reinitializes after its own upstream's DDL, with no DDL on the DTs
// reading it. The comparison is exact: a column that only changes case
// still changes the output fingerprint.
func (cp *compiledPlan) current() bool {
	for _, s := range cp.scans {
		if !slices.Equal(s.Table.Schema().Columns, s.Schema().Columns) {
			return false
		}
	}
	return true
}

// compiled returns the DT's compiled defining query, rebuilding it only
// when a DDL statement has committed since it was bound (identifiers may
// resolve differently, and an entry may hold a different object, §5.4)
// or a scanned table's schema has moved. Each scan's upstream DT is
// resolved through the scan's catalog entry in the same rebuild: the
// scan reads a DT when its entry holds one whose contents are the
// scanned table. Errors are not kept: the next call binds again. The
// DT's plan lock is held across a rebuild, so concurrent callers bind
// once.
//
// Each rebuild records one bind span: under parent, the refresh root,
// when a refresh rebuilds, and as a root of its own otherwise (the
// scheduler's and the DT graph's Upstreams calls, ALTER, CheckDVS).
func (c *Controller) compiled(dt *DynamicTable, parent *trace.Span) (*compiledPlan, error) {
	dt.planMu.Lock()
	defer dt.planMu.Unlock()
	// Read the sequence before binding: a DDL that commits during the
	// bind leaves the plan tagged with the older sequence, so the next
	// call rebuilds it.
	seq := c.ddlSeq()
	if cp := dt.compiled; cp != nil && cp.ddlSeq == seq && cp.current() {
		return cp, nil
	}
	dt.compiled = nil
	if parent != nil {
		span := parent.Child("bind")
		defer span.End()
	} else {
		span := c.Tracer.StartRoot("bind", trace.A("dt", dt.Name))
		defer c.Tracer.FinishRoot(span)
	}
	bound, err := c.bind(dt.Text)
	if err != nil {
		return nil, err
	}
	scans := plan.Scans(bound.Plan)
	ups := make([]*DynamicTable, len(scans))
	for i, scan := range scans {
		_, up, err := c.entry(scan.EntryID)
		if err != nil {
			return nil, err
		}
		if up != nil && up.Storage == scan.Table {
			ups[i] = up
		}
	}
	dt.compiled = &compiledPlan{
		bound:       bound,
		fingerprint: bound.Plan.Schema().String(),
		scans:       scans,
		ups:         ups,
		ddlSeq:      seq,
	}
	return dt.compiled, nil
}
