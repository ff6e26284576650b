// Package ivm implements query differentiation (§5.5): given a bound
// logical plan and a change interval (a pair of pinned version maps), it
// computes Δ_I(Q) — the set of $ROW_ID/$ACTION change rows transforming the
// query result at the interval start into the result at the interval end.
//
// The differentiation rules mirror the paper's:
//
//   - scans read the storage layer's change interval, skipping
//     data-equivalent versions (§5.5.2);
//   - filters, projections, union-all and flatten distribute over deltas;
//   - inner joins use the asymmetric bilinear rule
//     Δ(Q⋈R) = ΔQ⋈R₁ + Q₀⋈ΔR;
//   - outer joins have a direct derivative that shares boundary
//     evaluations (§5.5.1), with the inner+anti-join expansion kept as an
//     ablation strategy whose subplan duplication grows exponentially;
//   - grouped aggregation and DISTINCT recompute affected groups:
//     Δγ(Q) = −γ(Q₀ ⋉ₖ ΔQ) + γ(Q₁ ⋉ₖ ΔQ);
//   - window functions recompute affected partitions:
//     Δξ(Q) = π₋(ξ(Q₀ ⋉ₖ ΔQ)) + π₊(ξ(Q₁ ⋉ₖ ΔQ)) (§5.5.1).
//
// When one of these rules is the plan's top operator, under at most a
// Project of bare columns that keeps its key, and Env.Stored holds the
// DT's table, its old side is read from the DT instead: by delayed view
// semantics the DT's stored rows of Δ's keys are π(op(Q₀ ⋉ₖ ΔQ)), so
// Δ = −(the DT's rows of Δ's keys) + π(op(Q₁ ⋉ₖ ΔQ)), and Q₀ is never
// evaluated. The refresh emits that sum already consolidated, by diffing
// the two sides by row ID within each key. A key the DT does not store
// (a PARTITION BY column the query drops), a window under a Filter, an
// aggregate with stored accumulators and the full-recompute ablation keep
// the rules above (stored.go).
//
// The aggregate, DISTINCT and window rules share one restriction of their
// boundaries to Δ's keys; on the columnar path the boundaries read only
// those keys' rows through the storage row-log index when a key is a
// column of the input's one scan (keyed.go).
//
// A grouped aggregate of COUNT, COUNT_IF and SUM over INT values (none
// DISTINCT) skips the boundaries when Env.Accumulators holds its
// per-group accumulators as of the interval's start: it folds ΔQ into
// them, reading |ΔQ| rows. The state is seeded once from the whole input,
// after a refresh that took the boundary path, and is held in memory at
// a cost per group; it is not in the WAL or the checkpoint, and is
// rebuilt by that seed after recovery (accum.go).
package ivm

import (
	"errors"
	"fmt"
	"maps"
	"time"

	"dyntables/internal/delta"
	"dyntables/internal/exec"
	"dyntables/internal/plan"
	"dyntables/internal/sql"
	"dyntables/internal/storage"
	"dyntables/internal/types"
)

// VersionMap pins a version sequence per storage table ID.
type VersionMap map[int64]int64

// Clone copies the map.
func (vm VersionMap) Clone() VersionMap {
	out := make(VersionMap, len(vm))
	for k, v := range vm {
		out[k] = v
	}
	return out
}

// Interval is a change interval: the version frontier at the previous
// refresh and at the current refresh (§5.3).
type Interval struct {
	From VersionMap
	To   VersionMap
}

// Stats counts the work a differentiation performed; the ablation benches
// compare strategies with these rather than wall-clock noise.
type Stats struct {
	// SubplanDeltaEvals counts recursive Delta computations of child
	// subplans.
	SubplanDeltaEvals int64
	// SubplanSnapshotEvals counts boundary (as-of) evaluations of child
	// subplans.
	SubplanSnapshotEvals int64
	// PartitionsRecomputed counts window partitions recomputed.
	PartitionsRecomputed int64
	// PartitionsTotal counts window partitions present at the interval
	// end (for comparison with PartitionsRecomputed). When the boundaries
	// read only the affected partitions (keyed.go), it counts instead the
	// distinct values of the keyed partition column in the end version's
	// row log (storage.Table.DistinctKeys). For a one-column PARTITION BY
	// that is an upper bound, which still counts values whose rows were
	// all deleted or filtered out, until the next compaction fold; for a
	// wider one it counts the keyed column's values only. That count is
	// taken only when the Env has a Stats sink: nothing else reads it.
	PartitionsTotal int64
	// GroupsRecomputed counts aggregate groups recomputed.
	GroupsRecomputed int64
	// RowsEmitted counts change rows produced before consolidation.
	RowsEmitted int64
	// RowsDiffed counts the stored and new rows a stored-rule refresh
	// matched by row ID to emit only the rows that differ (stored.go). Its
	// change set is already consolidated, so ConsolidateSigned never runs
	// on it, and RowsEmitted counts the rows it emitted. A refresh that
	// falls back to consolidation, because a side repeats a row ID within
	// a key, counts none.
	RowsDiffed int64
	// AccumulatorFolds counts aggregate deltas folded from stored
	// accumulators, and AccumulatorSeeds the seeds of those accumulators
	// from a whole input (accum.go).
	AccumulatorFolds int64
	AccumulatorSeeds int64
	// OldSidesStored counts affected-key rules whose old side was read
	// from the DT's stored rows instead of recomputed (stored.go), and
	// StoredRowsRead the rows they read there: a lookup's candidates, or
	// the whole version when the lookup declines.
	OldSidesStored int64
	StoredRowsRead int64
	// ConsolidationElided counts refreshes that skipped the final
	// change-consolidation step because the plan structure and an
	// insert-only delta guarantee no duplicate ($ROW_ID, $ACTION) pairs
	// (§5.5.2).
	ConsolidationElided int64
}

// Env carries the differentiation environment.
type Env struct {
	Now      time.Time
	Counters *exec.Counters
	Stats    *Stats

	// ExpandOuterJoins switches to the inner+anti-join expansion strategy
	// for outer-join derivatives (the ablation of §5.5.1).
	ExpandOuterJoins bool
	// FullWindowRecompute disables the changed-partition optimization and
	// recomputes every window partition (ablation).
	FullWindowRecompute bool

	// Span, when non-nil, opens a named tracing span and returns its
	// closer. The hook keeps ivm free of a trace dependency; the
	// controller wires it to the engine's span recorder.
	Span func(name string) func()

	// Accumulators, when non-nil, holds the stored accumulators of the
	// plan's invertible aggregates between refreshes of one DT (accum.go);
	// nil recomputes every affected group from the boundaries.
	Accumulators *AggStore

	// Stored, when non-nil, is the table of the DT whose defining query is
	// being differentiated, and StoredSeq its version that holds the
	// query's result as of the interval's start. The plan's top
	// affected-key rule then reads its old side from those rows
	// (stored.go); nil recomputes it from the start boundary.
	Stored    *storage.Table
	StoredSeq int64

	// Columnar routes boundary-snapshot evaluations through the
	// executor's columnar fast path: scans resolve to shared,
	// version-cached batches instead of per-call row-map copies. Change
	// sets are identical either way (the differential harness enforces
	// it).
	Columnar bool
}

func (e *Env) stats(f func(*Stats)) {
	if e.Stats != nil {
		f(e.Stats)
	}
}

// ErrNotIncrementalizable reports a plan feature that has no derivative;
// callers fall back to full refresh (§3.3.2).
var ErrNotIncrementalizable = errors.New("ivm: plan is not incrementalizable")

// Incrementalizable checks whether every operator in the plan has a
// derivative, mirroring the supported set in §3.3.2: projections, filters,
// union-all, inner and outer joins, LATERAL FLATTEN, distinct and grouped
// aggregations, and partitioned window functions. Scalar (ungrouped)
// aggregates, unpartitioned windows, ORDER BY and LIMIT force full
// refreshes, and so does CURRENT_TIMESTAMP anywhere in the plan: a row
// derived at an earlier refresh's timestamp is never re-evaluated, so its
// stored value would differ from the query's as of the data timestamp.
func Incrementalizable(n plan.Node) error {
	if plan.Volatile(n) {
		return fmt.Errorf("%w: CURRENT_TIMESTAMP", ErrNotIncrementalizable)
	}
	var bad error
	plan.Walk(n, func(node plan.Node) {
		if bad != nil {
			return
		}
		switch x := node.(type) {
		case *plan.Sort:
			bad = fmt.Errorf("%w: ORDER BY", ErrNotIncrementalizable)
		case *plan.Limit:
			bad = fmt.Errorf("%w: LIMIT", ErrNotIncrementalizable)
		case *plan.Aggregate:
			if len(x.GroupBy) == 0 {
				bad = fmt.Errorf("%w: scalar aggregate", ErrNotIncrementalizable)
			}
		case *plan.Window:
			if len(x.PartitionBy) == 0 {
				bad = fmt.Errorf("%w: unpartitioned window function", ErrNotIncrementalizable)
			}
		}
	})
	return bad
}

// EvalAsOf evaluates the plan with every scan pinned to the version map.
func EvalAsOf(n plan.Node, vm VersionMap, env *Env) ([]exec.TRow, error) {
	if env.Span != nil {
		defer env.Span("ivm.eval")()
	}
	return exec.Run(n, pinnedCtx(vm, env))
}

// pinnedCtx builds the execution context for evaluating a plan with
// every scan pinned to the version map, routing scans through the
// columnar batch path when the environment enables it.
func pinnedCtx(vm VersionMap, env *Env) *exec.Context {
	ctx := &exec.Context{
		RowsOf: func(s *plan.Scan) (map[string]types.Row, error) {
			seq, ok := vm[s.Table.ID()]
			if !ok {
				return nil, fmt.Errorf("ivm: no pinned version for table %s (id %d)", s.Name, s.Table.ID())
			}
			return s.Table.Rows(seq)
		},
		Now:      env.Now,
		Counters: env.Counters,
	}
	if env.Columnar {
		ctx.BatchOf = func(s *plan.Scan) (*types.Batch, error) {
			seq, ok := vm[s.Table.ID()]
			if !ok {
				return nil, fmt.Errorf("ivm: no pinned version for table %s (id %d)", s.Name, s.Table.ID())
			}
			return s.Table.Batch(seq)
		}
	}
	return ctx
}

// Delta computes the consolidated change set of the plan over the
// interval. When the delta is insert-only and the plan's structure
// guarantees that differentiation introduces no redundant actions, the
// final change-consolidation step is skipped — the §5.5.2 optimization for
// the extremely common insert-only workloads.
func Delta(n plan.Node, iv Interval, env *Env) (delta.ChangeSet, error) {
	if env.Span != nil {
		defer env.Span("ivm.delta")()
	}
	env.Accumulators.attach(n)
	if t := storedRule(n, env); t != nil {
		return t.delta(iv, env)
	}
	rows, err := deltaRec(n, iv, env)
	if err != nil {
		return delta.ChangeSet{}, err
	}
	cs := delta.ChangeSet{Changes: rows}
	env.stats(func(s *Stats) { s.RowsEmitted += int64(len(rows)) })
	if cs.InsertOnly() && ConsolidationFree(n) {
		env.stats(func(s *Stats) { s.ConsolidationElided++ })
		return cs, nil
	}
	return cs.ConsolidateSigned(), nil
}

// ConsolidationFree reports whether the plan's structure guarantees that
// an insert-only delta contains no duplicate ($ROW_ID, $ACTION) pairs, so
// the change-consolidation step can be skipped (§5.5.2). Linear operators
// preserve source row IDs injectively; inner joins combine both sides'
// IDs, and a row pair where both sides are new appears in exactly one
// bilinear term. Aggregates, DISTINCT, windows and outer joins emit
// delete+insert pairs and always consolidate.
func ConsolidationFree(n plan.Node) bool {
	safe := true
	plan.Walk(n, func(node plan.Node) {
		switch x := node.(type) {
		case *plan.Scan, *plan.Filter, *plan.Project, *plan.UnionAll,
			*plan.Flatten, *plan.Values:
		case *plan.Join:
			if x.Type != sql.JoinInner {
				safe = false
			}
		default:
			safe = false
		}
	})
	return safe
}

func deltaRec(n plan.Node, iv Interval, env *Env) ([]delta.Change, error) {
	defer enter(n, env)()
	switch x := n.(type) {
	case *plan.Scan:
		return deltaScan(x, iv, env)
	case *plan.Filter:
		return deltaFilter(x, iv, env)
	case *plan.Project:
		return deltaProject(x, iv, env)
	case *plan.UnionAll:
		return deltaUnion(x, iv, env)
	case *plan.Flatten:
		return deltaFlatten(x, iv, env)
	case *plan.Join:
		if x.Type == sql.JoinInner {
			return deltaInnerJoin(x, iv, env)
		}
		if env.ExpandOuterJoins {
			return deltaOuterJoinExpanded(x, iv, env)
		}
		return deltaOuterJoinDirect(x, iv, env)
	case *plan.Aggregate:
		return deltaAggregate(x, iv, env)
	case *plan.Distinct:
		return deltaDistinct(x, iv, env)
	case *plan.Window:
		return deltaWindow(x, iv, env)
	case *plan.Values:
		return nil, nil // static
	default:
		return nil, fmt.Errorf("%w: operator %T", ErrNotIncrementalizable, n)
	}
}

// enter counts the differentiation of n and opens its span; the caller
// calls the result when done.
func enter(n plan.Node, env *Env) func() {
	env.stats(func(s *Stats) { s.SubplanDeltaEvals++ })
	if env.Span != nil {
		return env.Span("delta." + deltaOpName(n))
	}
	return func() {}
}

func snapshot(n plan.Node, vm VersionMap, env *Env) ([]exec.TRow, error) {
	env.stats(func(s *Stats) { s.SubplanSnapshotEvals++ })
	return EvalAsOf(n, vm, env)
}

// deltaOpName gives each differentiated operator a short span-name suffix.
func deltaOpName(n plan.Node) string {
	switch x := n.(type) {
	case *plan.Scan:
		return "scan"
	case *plan.Filter:
		return "filter"
	case *plan.Project:
		return "project"
	case *plan.UnionAll:
		return "union"
	case *plan.Flatten:
		return "flatten"
	case *plan.Join:
		if x.Type == sql.JoinInner {
			return "inner_join"
		}
		return "outer_join"
	case *plan.Aggregate:
		return "aggregate"
	case *plan.Distinct:
		return "distinct"
	case *plan.Window:
		return "window"
	case *plan.Values:
		return "values"
	default:
		return "op"
	}
}

// snapshotBoundaries evaluates a subplan whole at both interval
// boundaries, as the direct outer-join rule needs.
func snapshotBoundaries(n plan.Node, iv Interval, env *Env) (q0, q1 []exec.TRow, err error) {
	if q0, err = snapshot(n, iv.From, env); err != nil {
		return nil, nil, err
	}
	if q1, err = snapshot(n, iv.To, env); err != nil {
		return nil, nil, err
	}
	return q0, q1, nil
}

// ---------------------------------------------------------------------------
// leaf and linear rules
// ---------------------------------------------------------------------------

func deltaScan(s *plan.Scan, iv Interval, env *Env) ([]delta.Change, error) {
	from, ok := iv.From[s.Table.ID()]
	if !ok {
		return nil, fmt.Errorf("ivm: interval missing start version for table %s", s.Name)
	}
	to, ok := iv.To[s.Table.ID()]
	if !ok {
		return nil, fmt.Errorf("ivm: interval missing end version for table %s", s.Name)
	}
	cs, err := s.Table.Changes(from, to)
	if err != nil {
		var over *storage.ErrOverwritten
		if errors.As(err, &over) {
			// The caller must REINITIALIZE (§5.4).
			return nil, fmt.Errorf("%w: %v", ErrSourceOverwritten, err)
		}
		return nil, err
	}
	return cs.Changes, nil
}

// ErrSourceOverwritten signals that an upstream table was overwritten or
// replaced inside the change interval, invalidating incremental results;
// the refresh controller reacts with a REINITIALIZE action (§3.3.2).
var ErrSourceOverwritten = errors.New("ivm: source overwritten within change interval")

func deltaFilter(f *plan.Filter, iv Interval, env *Env) ([]delta.Change, error) {
	in, err := deltaRec(f.Input, iv, env)
	if err != nil {
		return nil, err
	}
	ev := &plan.EvalContext{Now: env.Now}
	out := in[:0:0]
	for _, c := range in {
		ok, err := plan.EvalBool(f.Pred, c.Row, ev)
		if err != nil {
			return nil, err
		}
		if ok {
			out = append(out, c)
		}
	}
	return out, nil
}

func deltaProject(p *plan.Project, iv Interval, env *Env) ([]delta.Change, error) {
	in, err := deltaRec(p.Input, iv, env)
	if err != nil {
		return nil, err
	}
	ev := &plan.EvalContext{Now: env.Now}
	out := make([]delta.Change, len(in))
	for i, c := range in {
		row := make(types.Row, len(p.Exprs))
		for j, e := range p.Exprs {
			v, err := plan.Eval(e, c.Row, ev)
			if err != nil {
				return nil, err
			}
			row[j] = v
		}
		out[i] = delta.Change{RowID: c.RowID, Action: c.Action, Row: row}
	}
	return out, nil
}

// deltaUnion concatenates the branch deltas in branch order.
func deltaUnion(u *plan.UnionAll, iv Interval, env *Env) ([]delta.Change, error) {
	var out []delta.Change
	for i, in := range u.Inputs {
		rows, err := deltaRec(in, iv, env)
		if err != nil {
			return nil, err
		}
		for _, c := range rows {
			c.RowID = exec.UnionBranchID(i, c.RowID)
			out = append(out, c)
		}
	}
	return out, nil
}

// byAction returns the rows of the changes carrying the given action.
func byAction(changes []delta.Change, action delta.Action) []exec.TRow {
	var part []exec.TRow
	for _, c := range changes {
		if c.Action == action {
			part = append(part, exec.TRow{ID: c.RowID, Row: c.Row})
		}
	}
	return part
}

func deltaFlatten(f *plan.Flatten, iv Interval, env *Env) ([]delta.Change, error) {
	in, err := deltaRec(f.Input, iv, env)
	if err != nil {
		return nil, err
	}
	var out []delta.Change
	// Flatten inserts and deletes separately: each preserves action.
	for _, action := range []delta.Action{delta.Delete, delta.Insert} {
		part := byAction(in, action)
		if len(part) == 0 {
			continue
		}
		flat, err := exec.FlattenRows(f, part, &exec.Context{Now: env.Now})
		if err != nil {
			return nil, err
		}
		for _, tr := range flat {
			out = append(out, delta.Change{RowID: tr.ID, Action: action, Row: tr.Row})
		}
	}
	return out, nil
}

// ---------------------------------------------------------------------------
// joins
// ---------------------------------------------------------------------------

// innerOf returns a copy of the join node with INNER semantics, reusing
// keys and residual.
func innerOf(j *plan.Join) *plan.Join {
	return plan.NewJoin(sql.JoinInner, j.L, j.R, j.LeftKeys, j.RightKeys, j.Residual)
}

// joinSigned inner-joins change rows against plain rows of the other
// side, each output row carrying the action of its change row. signedLeft
// says which side of the join the change rows are on.
func joinSigned(j *plan.Join, signed []delta.Change, other []exec.TRow, signedLeft bool, env *Env) ([]delta.Change, error) {
	inner := innerOf(j)
	ctx := &exec.Context{Now: env.Now, Counters: env.Counters}
	var out []delta.Change
	for _, action := range []delta.Action{delta.Delete, delta.Insert} {
		part := byAction(signed, action)
		if len(part) == 0 {
			continue
		}
		left, right := part, other
		if !signedLeft {
			left, right = other, part
		}
		joined, err := exec.JoinRows(inner, left, right, ctx)
		if err != nil {
			return nil, err
		}
		for _, tr := range joined {
			out = append(out, delta.Change{RowID: tr.ID, Action: action, Row: tr.Row})
		}
	}
	return out, nil
}

// joinSides differentiates both inputs of a join, left first.
func joinSides(j *plan.Join, iv Interval, env *Env) (dq, dr []delta.Change, err error) {
	if dq, err = deltaRec(j.L, iv, env); err != nil {
		return nil, nil, err
	}
	if dr, err = deltaRec(j.R, iv, env); err != nil {
		return nil, nil, err
	}
	return dq, dr, nil
}

// deltaInnerJoin implements Δ(Q⋈R) = ΔQ⋈R₁ + Q₀⋈ΔR, evaluating each
// bilinear term's boundary snapshot only when its delta is non-empty, and
// then over the rows whose join key can match one of the delta's where a
// lookup applies (keyed.go).
func deltaInnerJoin(j *plan.Join, iv Interval, env *Env) ([]delta.Change, error) {
	dq, dr, err := joinSides(j, iv, env)
	if err != nil {
		return nil, err
	}
	var out []delta.Change
	if len(dq) > 0 {
		r1, err := lookupFor(j.R, j.RightKeys, j.LeftKeys, dq, env).boundary(j.R, iv.To, env)
		if err != nil {
			return nil, err
		}
		if out, err = joinSigned(j, dq, r1, true, env); err != nil {
			return nil, err
		}
	}
	if len(dr) > 0 {
		q0, err := lookupFor(j.L, j.LeftKeys, j.RightKeys, dr, env).boundary(j.L, iv.From, env)
		if err != nil {
			return nil, err
		}
		term2, err := joinSigned(j, dr, q0, false, env)
		if err != nil {
			return nil, err
		}
		out = append(out, term2...)
	}
	return out, nil
}

// matchedIDs runs the inner join of the given left rows against right rows
// and returns the set of left row IDs that produced at least one output.
func matchedIDs(j *plan.Join, left, right []exec.TRow, env *Env, leftSide bool) (map[string]bool, error) {
	inner := innerOf(j)
	ctx := &exec.Context{Now: env.Now, Counters: env.Counters}
	var joined []exec.TRow
	var err error
	joined, err = exec.JoinRows(inner, left, right, ctx)
	if err != nil {
		return nil, err
	}
	// Recover which input rows matched by re-deriving the input ID from
	// the combined ID ("(lid*rid)").
	out := make(map[string]bool)
	for _, tr := range joined {
		lid, rid, ok := exec.SplitJoinID(tr.ID)
		if !ok {
			continue
		}
		if leftSide {
			out[lid] = true
		} else {
			out[rid] = true
		}
	}
	return out, nil
}

// nullExtensionDelta computes the change rows for the null-extended side
// of an outer join, restricted to potentially affected rows.
//
// preserved: the preserved side's rows at both boundaries (q ∈ Q₀, Q₁).
// affected: IDs of preserved-side rows whose null-extension status may
// have changed. other0/other1: the other side's rows at the boundaries.
func nullExtensionDelta(
	j *plan.Join,
	preservedLeft bool,
	p0, p1 map[string]exec.TRow,
	affected map[string]bool,
	other0, other1 []exec.TRow,
	env *Env,
) ([]delta.Change, error) {
	// Collect the affected rows present at each boundary.
	var rows0, rows1 []exec.TRow
	for id := range affected {
		if tr, ok := p0[id]; ok {
			rows0 = append(rows0, tr)
		}
		if tr, ok := p1[id]; ok {
			rows1 = append(rows1, tr)
		}
	}
	var m0, m1 map[string]bool
	var err error
	if preservedLeft {
		m0, err = matchedIDs(j, rows0, other0, env, true)
		if err != nil {
			return nil, err
		}
		m1, err = matchedIDs(j, rows1, other1, env, true)
		if err != nil {
			return nil, err
		}
	} else {
		m0, err = matchedIDs(j, other0, rows0, env, false)
		if err != nil {
			return nil, err
		}
		m1, err = matchedIDs(j, other1, rows1, env, false)
		if err != nil {
			return nil, err
		}
	}

	lWidth := j.L.Schema().Len()
	rWidth := j.R.Schema().Len()
	nullLeft := make(types.Row, lWidth)
	nullRight := make(types.Row, rWidth)

	extRow := func(tr exec.TRow) (string, types.Row) {
		if preservedLeft {
			return exec.JoinRowID(tr.ID, "-"), tr.Row.Concat(nullRight)
		}
		return exec.JoinRowID("-", tr.ID), nullLeft.Concat(tr.Row)
	}

	// Equal delete+insert pairs cancel during consolidation.
	var out []delta.Change
	for id := range affected {
		if tr0, in0 := p0[id]; in0 && !m0[id] {
			rid, row := extRow(tr0)
			out = append(out, delta.Change{RowID: rid, Action: delta.Delete, Row: row})
		}
		if tr1, in1 := p1[id]; in1 && !m1[id] {
			rid, row := extRow(tr1)
			out = append(out, delta.Change{RowID: rid, Action: delta.Insert, Row: row})
		}
	}
	return out, nil
}

// deltaOuterJoinDirect is the direct outer-join derivative (§5.5.1): the
// inner-join delta plus null-extension maintenance, sharing each boundary
// evaluation across terms.
func deltaOuterJoinDirect(j *plan.Join, iv Interval, env *Env) ([]delta.Change, error) {
	dq, dr, err := joinSides(j, iv, env)
	if err != nil {
		return nil, err
	}
	if len(dq) == 0 && len(dr) == 0 {
		return nil, nil
	}

	// Boundary evaluations, shared by every term below.
	q0, q1, err := snapshotBoundaries(j.L, iv, env)
	if err != nil {
		return nil, err
	}
	r0, r1, err := snapshotBoundaries(j.R, iv, env)
	if err != nil {
		return nil, err
	}

	// Inner part: ΔQ⋈R₁ + Q₀⋈ΔR.
	out, err := joinSigned(j, dq, r1, true, env)
	if err != nil {
		return nil, err
	}
	term2, err := joinSigned(j, dr, q0, false, env)
	if err != nil {
		return nil, err
	}
	out = append(out, term2...)

	byID := func(rows []exec.TRow) map[string]exec.TRow {
		m := make(map[string]exec.TRow, len(rows))
		for _, tr := range rows {
			m[tr.ID] = tr
		}
		return m
	}

	if j.Type == sql.JoinLeft || j.Type == sql.JoinFull {
		affected, err := affectedPreservedIDs(j, dq, dr, q0, q1, true, env)
		if err != nil {
			return nil, err
		}
		ext, err := nullExtensionDelta(j, true, byID(q0), byID(q1), affected, r0, r1, env)
		if err != nil {
			return nil, err
		}
		out = append(out, ext...)
	}
	if j.Type == sql.JoinRight || j.Type == sql.JoinFull {
		affected, err := affectedPreservedIDs(j, dr, dq, r0, r1, false, env)
		if err != nil {
			return nil, err
		}
		ext, err := nullExtensionDelta(j, false, byID(r0), byID(r1), affected, q0, q1, env)
		if err != nil {
			return nil, err
		}
		out = append(out, ext...)
	}
	return out, nil
}

// affectedPreservedIDs computes the preserved-side row IDs whose
// null-extension status may have changed: rows in the preserved side's own
// delta, plus rows whose join key appears in the other side's delta.
func affectedPreservedIDs(
	j *plan.Join,
	ownDelta, otherDelta []delta.Change,
	p0, p1 []exec.TRow,
	preservedLeft bool,
	env *Env,
) (map[string]bool, error) {
	affected := make(map[string]bool, len(ownDelta))
	for _, c := range ownDelta {
		affected[c.RowID] = true
	}
	if len(otherDelta) == 0 {
		return affected, nil
	}
	ownKeys, otherKeys := j.LeftKeys, j.RightKeys
	if !preservedLeft {
		ownKeys, otherKeys = j.RightKeys, j.LeftKeys
	}
	if len(ownKeys) == 0 {
		// No equi-keys: any change on the other side can affect any
		// preserved row.
		for _, tr := range p0 {
			affected[tr.ID] = true
		}
		for _, tr := range p1 {
			affected[tr.ID] = true
		}
		return affected, nil
	}
	changedKeys := make(map[string]bool, len(otherDelta))
	for _, c := range otherDelta {
		key, ok, err := exec.EvalKey(otherKeys, c.Row, env.Now)
		if err != nil {
			return nil, err
		}
		if ok {
			changedKeys[key] = true
		}
	}
	mark := func(rows []exec.TRow) error {
		for _, tr := range rows {
			key, ok, err := exec.EvalKey(ownKeys, tr.Row, env.Now)
			if err != nil {
				return err
			}
			if ok && changedKeys[key] {
				affected[tr.ID] = true
			}
		}
		return nil
	}
	if err := mark(p0); err != nil {
		return nil, err
	}
	if err := mark(p1); err != nil {
		return nil, err
	}
	return affected, nil
}

// deltaOuterJoinExpanded is the ablation strategy: rewrite the outer join
// as inner join ∪ null-extended anti-join and differentiate each term
// independently. Terms re-differentiate and re-evaluate the shared
// subplans, so nested outer joins duplicate work exponentially — the
// behaviour §5.5.1 reports as motivating the direct derivative.
func deltaOuterJoinExpanded(j *plan.Join, iv Interval, env *Env) ([]delta.Change, error) {
	// Term 1: inner join delta (its own recursive differentiation).
	out, err := deltaInnerJoin(j, iv, env)
	if err != nil {
		return nil, err
	}
	// Terms 2/3: anti-join deltas, recomputing everything per side.
	if j.Type == sql.JoinLeft || j.Type == sql.JoinFull {
		ext, err := deltaAntiJoinRecompute(j, iv, env, true)
		if err != nil {
			return nil, err
		}
		out = append(out, ext...)
	}
	if j.Type == sql.JoinRight || j.Type == sql.JoinFull {
		ext, err := deltaAntiJoinRecompute(j, iv, env, false)
		if err != nil {
			return nil, err
		}
		out = append(out, ext...)
	}
	return out, nil
}

// deltaAntiJoinRecompute differentiates the null-extension term by
// evaluating the anti-join at both boundaries and diffing — including its
// own recursive delta of the preserved side to find affected rows, which
// duplicates the subplan evaluations already done by the inner term.
func deltaAntiJoinRecompute(j *plan.Join, iv Interval, env *Env, preservedLeft bool) ([]delta.Change, error) {
	// Redundant recursive differentiation (the expansion's cost).
	if preservedLeft {
		if _, err := deltaRec(j.L, iv, env); err != nil {
			return nil, err
		}
		if _, err := deltaRec(j.R, iv, env); err != nil {
			return nil, err
		}
	} else {
		if _, err := deltaRec(j.R, iv, env); err != nil {
			return nil, err
		}
		if _, err := deltaRec(j.L, iv, env); err != nil {
			return nil, err
		}
	}
	antiAt := func(vm VersionMap) (map[string]exec.TRow, error) {
		var pres, other []exec.TRow
		var err error
		if preservedLeft {
			pres, err = snapshot(j.L, vm, env)
			if err != nil {
				return nil, err
			}
			other, err = snapshot(j.R, vm, env)
		} else {
			pres, err = snapshot(j.R, vm, env)
			if err != nil {
				return nil, err
			}
			other, err = snapshot(j.L, vm, env)
		}
		if err != nil {
			return nil, err
		}
		var matched map[string]bool
		if preservedLeft {
			matched, err = matchedIDs(j, pres, other, env, true)
		} else {
			matched, err = matchedIDs(j, other, pres, env, false)
		}
		if err != nil {
			return nil, err
		}
		out := make(map[string]exec.TRow)
		for _, tr := range pres {
			if !matched[tr.ID] {
				out[tr.ID] = tr
			}
		}
		return out, nil
	}
	before, err := antiAt(iv.From)
	if err != nil {
		return nil, err
	}
	after, err := antiAt(iv.To)
	if err != nil {
		return nil, err
	}

	lWidth := j.L.Schema().Len()
	rWidth := j.R.Schema().Len()
	nullLeft := make(types.Row, lWidth)
	nullRight := make(types.Row, rWidth)
	extend := func(tr exec.TRow) (string, types.Row) {
		if preservedLeft {
			return exec.JoinRowID(tr.ID, "-"), tr.Row.Concat(nullRight)
		}
		return exec.JoinRowID("-", tr.ID), nullLeft.Concat(tr.Row)
	}

	var out []delta.Change
	for id, tr := range before {
		if cur, ok := after[id]; ok && cur.Row.Equal(tr.Row) {
			continue
		}
		rid, row := extend(tr)
		out = append(out, delta.Change{RowID: rid, Action: delta.Delete, Row: row})
	}
	for id, tr := range after {
		if prev, ok := before[id]; ok && prev.Row.Equal(tr.Row) {
			continue
		}
		rid, row := extend(tr)
		out = append(out, delta.Change{RowID: rid, Action: delta.Insert, Row: row})
	}
	return out, nil
}

// ---------------------------------------------------------------------------
// aggregation, distinct, window
// ---------------------------------------------------------------------------

// deltaAggregate recomputes affected groups:
// Δγ(Q) = −γ(Q₀ ⋉ₖ keys(ΔQ)) + γ(Q₁ ⋉ₖ keys(ΔQ)),
// or, when env holds the node's accumulators as of the interval's start,
// folds ΔQ into them (accum.go).
func deltaAggregate(a *plan.Aggregate, iv Interval, env *Env) ([]delta.Change, error) {
	din, err := deltaRec(a.Input, iv, env)
	if err != nil {
		return nil, err
	}
	st := env.Accumulators.state(a)
	if len(din) == 0 {
		st.carry(iv)
		return nil, nil
	}
	if out, ok := st.fold(din, iv, env); ok {
		return out, nil
	}
	ak, err := affectedBy(a.Input, a.GroupBy, din, env)
	if err != nil {
		return nil, err
	}
	env.stats(func(s *Stats) { s.GroupsRecomputed += int64(len(ak.keys)) })
	old, n0, err := aggregateAt(a, iv.From, ak, env)
	if err != nil {
		return nil, err
	}
	cur, n1, err := aggregateAt(a, iv.To, ak, env)
	if err != nil {
		return nil, err
	}

	// Scalar aggregates materialize a row even over empty input; only
	// treat boundary rows as present when their group actually had input
	// rows, except for the genuine global aggregate.
	var out []delta.Change
	if len(a.GroupBy) > 0 || n0 > 0 {
		out = appendAs(out, old, delta.Delete)
	}
	if len(a.GroupBy) > 0 || n1 > 0 {
		out = appendAs(out, cur, delta.Insert)
	}
	st.seed(a, iv.To, env)
	return out, nil
}

// aggregateAt aggregates the affected groups of the aggregate's input as
// of vm. On the columnar path the input evaluates to batches and the
// affected-group restriction fuses into the vectorized aggregation loop;
// otherwise the restricted rows feed AggregateRows. Either way the scan
// reads only the affected keys when ak has a lookup. n counts the
// restricted input rows on the row path (the scalar aggregate guard's
// signal; the columnar path handles grouped aggregates only, where the
// guard is vacuous).
func aggregateAt(a *plan.Aggregate, vm VersionMap, ak *affectedKeys, env *Env) (_ []exec.TRow, n int, _ error) {
	if len(a.GroupBy) > 0 && env.Columnar {
		ctx := ak.lk.ctx(vm, env)
		cr, handled, err := exec.RunColumnar(a.Input, ctx)
		if err != nil {
			return nil, 0, err
		}
		if handled {
			env.stats(func(s *Stats) { s.SubplanSnapshotEvals++ })
			rows, err := exec.AggregateColumnar(a, cr, ak.keys, ctx)
			return rows, 0, err
		}
		// Not batchable: fall through to the row path.
	}
	in, err := ak.boundary(a.Input, vm, env, nil)
	if err != nil {
		return nil, 0, err
	}
	rows, err := exec.AggregateRows(a, in, &exec.Context{Now: env.Now, Counters: env.Counters})
	return rows, len(in), err
}

// deltaDistinct treats DISTINCT as grouping on every column:
// Δδ(Q) = −δ(Q₀ ⋉ₖ keys(ΔQ)) + δ(Q₁ ⋉ₖ keys(ΔQ)). A value present at
// both boundaries under the same first row cancels in consolidation.
func deltaDistinct(d *plan.Distinct, iv Interval, env *Env) ([]delta.Change, error) {
	din, err := deltaRec(d.Input, iv, env)
	if err != nil || len(din) == 0 {
		return nil, err
	}
	ak, err := affectedBy(d.Input, rowKey(d.Input), din, env)
	if err != nil {
		return nil, err
	}
	old, err := distinctAt(d, iv.From, ak, env)
	if err != nil {
		return nil, err
	}
	cur, err := distinctAt(d, iv.To, ak, env)
	if err != nil {
		return nil, err
	}
	out := make([]delta.Change, 0, len(old)+len(cur))
	out = appendAs(out, old, delta.Delete)
	return appendAs(out, cur, delta.Insert), nil
}

// distinctAt is DISTINCT over the rows of the affected keys as of vm.
func distinctAt(d *plan.Distinct, vm VersionMap, ak *affectedKeys, env *Env) ([]exec.TRow, error) {
	in, err := ak.boundary(d.Input, vm, env, nil)
	if err != nil {
		return nil, err
	}
	return exec.DistinctRows(in)
}

// deltaWindow recomputes affected partitions (§5.5.1):
// Δξ(Q) = π₋(ξ(Q₀ ⋉ₖ ΔQ)) + π₊(ξ(Q₁ ⋉ₖ ΔQ)).
func deltaWindow(w *plan.Window, iv Interval, env *Env) ([]delta.Change, error) {
	din, err := deltaRec(w.Input, iv, env)
	if err != nil {
		return nil, err
	}
	if len(din) == 0 {
		return nil, nil
	}
	ak, err := affectedBy(w.Input, w.PartitionBy, din, env)
	if err != nil {
		return nil, err
	}
	// The ablation recomputes every partition, so it reads whole versions
	// and counts the partitions at either boundary.
	var all map[string]bool
	if env.FullWindowRecompute {
		ak.keys, ak.lk, all = nil, nil, make(map[string]bool)
	}
	in0, err := ak.boundary(w.Input, iv.From, env, all)
	if err != nil {
		return nil, err
	}
	ctx := &exec.Context{Now: env.Now, Counters: env.Counters}
	old, err := exec.WindowRows(w, in0, ctx)
	if err != nil {
		return nil, err
	}
	in1, err := windowEnd(w, iv, ak, all, env)
	if err != nil {
		return nil, err
	}
	cur, err := exec.WindowRows(w, in1, ctx)
	if err != nil {
		return nil, err
	}
	out := make([]delta.Change, 0, len(old)+len(cur))
	out = appendAs(out, old, delta.Delete)
	// Rows whose window values did not change cancel in consolidation.
	return appendAs(out, cur, delta.Insert), nil
}

// windowEnd evaluates the window's input over the affected partitions as
// of the interval's end and counts the partitions recomputed and present
// there. all, when non-nil, holds the partitions the start boundary saw,
// and makes every partition count as recomputed (the ablation).
func windowEnd(w *plan.Window, iv Interval, ak *affectedKeys, all map[string]bool, env *Env) ([]exec.TRow, error) {
	// With a lookup, the keyed column's run counts the partitions.
	var end map[string]bool
	if ak.lk == nil {
		end = make(map[string]bool)
	}
	in1, err := ak.boundary(w.Input, iv.To, env, end)
	if err != nil {
		return nil, err
	}
	recomputed, partitions := len(ak.keys), len(end)
	if all != nil {
		maps.Copy(all, end)
		recomputed = len(all)
	}
	if lk := ak.lk; lk != nil && env.Stats != nil {
		// The end boundary read only the affected partitions' rows; the
		// keyed column's runs count them all without reading them. Only a
		// Stats sink reads the count, so nothing else pays for it.
		if partitions, _, err = lk.scan.Table.DistinctKeys(iv.To[lk.scan.Table.ID()], lk.col); err != nil {
			return nil, err
		}
	}
	env.stats(func(s *Stats) {
		s.PartitionsRecomputed += int64(recomputed)
		s.PartitionsTotal += int64(partitions)
	})
	return in1, nil
}

// appendAs appends the rows to out as changes carrying the action.
func appendAs(out []delta.Change, rows []exec.TRow, action delta.Action) []delta.Change {
	for _, tr := range rows {
		out = append(out, delta.Change{RowID: tr.ID, Action: action, Row: tr.Row})
	}
	return out
}
