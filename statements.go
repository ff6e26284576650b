package dyntables

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"time"

	"dyntables/internal/catalog"
	"dyntables/internal/core"
	"dyntables/internal/delta"
	"dyntables/internal/exec"
	"dyntables/internal/ivm"
	"dyntables/internal/obs"
	"dyntables/internal/persist"
	"dyntables/internal/plan"
	"dyntables/internal/sql"
	"dyntables/internal/storage"
	"dyntables/internal/txn"
	"dyntables/internal/types"
	"dyntables/internal/warehouse"
)

// Result is the outcome of an Exec call.
type Result struct {
	// Kind names the executed statement (SELECT, CREATE TABLE, ...).
	Kind string
	// Columns and Rows carry SELECT output.
	Columns []string
	Rows    [][]types.Value
	// RowsAffected counts DML changes.
	RowsAffected int
	// Message carries informational output for DDL.
	Message string
}

// Exec parses and executes a single SQL statement on the default session.
func (e *Engine) Exec(text string) (*Result, error) { return e.def.Exec(text) }

// MustExec runs Exec and panics on error; intended for examples and tests.
func (e *Engine) MustExec(text string) *Result { return e.def.MustExec(text) }

// ExecScript executes a semicolon-separated script on the default
// session, stopping at the first error.
func (e *Engine) ExecScript(text string) ([]*Result, error) { return e.def.ExecScript(text) }

// Query executes a SELECT on the default session and returns its result.
func (e *Engine) Query(text string) (*Result, error) { return e.def.Query(text) }

// ManualRefresh refreshes a DT (and, as needed, its upstream DTs) at a
// data timestamp chosen after the command was issued (§3.1.2), using the
// default session's role. Requires the OPERATE privilege.
func (e *Engine) ManualRefresh(name string) error { return e.def.ManualRefresh(name) }

// Describe returns a DT's monitoring snapshot using the default session's
// role.
func (e *Engine) Describe(name string) (*DynamicTableStatus, error) { return e.def.Describe(name) }

// executor runs one statement for one session: it carries the execution
// context, the session (for role checks) and the bound parameters.
type executor struct {
	e      *Engine
	s      *Session
	ctx    context.Context
	params *plan.Params
}

// canceled returns the context's error, if any.
func (x *executor) canceled() error {
	if x.ctx != nil {
		return x.ctx.Err()
	}
	return nil
}

func (x *executor) execStmt(stmt sql.Statement) (*Result, error) {
	if err := x.canceled(); err != nil {
		return nil, err
	}
	switch s := stmt.(type) {
	case *sql.SelectStmt:
		return x.execSelect(s)
	case *sql.CreateTableStmt:
		return x.execCreateTable(s)
	case *sql.CreateViewStmt:
		return x.execCreateView(s)
	case *sql.CreateWarehouseStmt:
		return x.execCreateWarehouse(s)
	case *sql.CreateDynamicTableStmt:
		return x.execCreateDynamicTable(s)
	case *sql.CreateAlertStmt:
		return x.execCreateAlert(s)
	case *sql.InsertStmt:
		return x.execInsert(s)
	case *sql.UpdateStmt:
		return x.execUpdate(s)
	case *sql.DeleteStmt:
		return x.execDelete(s)
	case *sql.DropStmt:
		return x.execDrop(s)
	case *sql.UndropStmt:
		return x.execUndrop(s)
	case *sql.AlterStmt:
		return x.execAlter(s)
	case *sql.AlterSystemStmt:
		return x.execAlterSystem(s)
	case *sql.ShowStmt:
		return x.execShow(s)
	case *sql.ExplainStmt:
		return x.execExplain(s)
	default:
		return nil, fmt.Errorf("dyntables: unsupported statement %T", stmt)
	}
}

// ---------------------------------------------------------------------------
// SELECT
// ---------------------------------------------------------------------------

// planSelect implements the §4 read path: queries read the latest
// committed version of every source (Read Committed). Binding, privilege
// checks and version pinning happen while the statement lock is held;
// the returned pins let the cursor keep reading a consistent snapshot
// after the lock is released. A query whose only source is a single DT
// therefore observes one consistent snapshot as of that DT's data
// timestamp (Snapshot Isolation); queries mixing several DTs may observe
// different data timestamps per DT.
func (x *executor) planSelect(stmt *sql.SelectStmt) (plan.Node, map[int64]int64, error) {
	bound, err := plan.NewBinder(x.e).BindSelect(stmt)
	if err != nil {
		return nil, nil, err
	}
	if err := x.checkSelectPrivileges(bound); err != nil {
		return nil, nil, err
	}
	p := plan.Optimize(bound.Plan)
	pins := make(map[int64]int64)
	for _, scan := range plan.Scans(p) {
		id := scan.Table.ID()
		if _, done := pins[id]; !done {
			pins[id] = int64(scan.Table.VersionCount())
		}
	}
	return p, pins, nil
}

// runContext builds the executor environment reading the pinned versions.
// With the columnar path enabled, batchable subtrees read shared
// per-version column batches instead of copying the row map per scan, and
// a filter over a scan that leads with a selective range on an INT-family
// column reads only that range's rows (storage.Table.SelectiveLookup).
func (x *executor) runContext(pins map[int64]int64) *exec.Context {
	seqOf := func(s *plan.Scan) int64 {
		if seq, ok := pins[s.Table.ID()]; ok {
			return seq
		}
		return int64(s.Table.VersionCount())
	}
	ctx := &exec.Context{
		RowsOf: func(s *plan.Scan) (map[string]types.Row, error) {
			return s.Table.Rows(seqOf(s))
		},
		Now:    x.e.clk.Now(),
		Params: x.params,
		Ctx:    x.ctx,
	}
	if x.e.ctrl.Columnar {
		ctx.BatchOf = func(s *plan.Scan) (*types.Batch, error) {
			return s.Table.Batch(seqOf(s))
		}
		ctx.LookupOf = func(s *plan.Scan, r plan.KeyRange) (*types.Batch, bool, error) {
			return s.Table.SelectiveLookup(seqOf(s), r.Col, r.Lo, r.Hi)
		}
	}
	return ctx
}

// pinVersions takes a storage-level pin on every pinned (table, seq) of
// the plan, so the compaction sweep cannot fold versions a live cursor
// still reads. It runs while the statement read lock is held (the sweep
// is a writer), so pin-taking is atomic with respect to sweeps. The
// returned release function drops the pins; it must be called exactly
// once.
func pinVersions(p plan.Node, pins map[int64]int64) func() {
	type pin struct {
		t   *storage.Table
		seq int64
	}
	var taken []pin
	seen := make(map[int64]bool)
	for _, scan := range plan.Scans(p) {
		id := scan.Table.ID()
		if seen[id] {
			continue
		}
		seen[id] = true
		if seq, ok := pins[id]; ok {
			scan.Table.Pin(seq)
			taken = append(taken, pin{t: scan.Table, seq: seq})
		}
	}
	return func() {
		for _, p := range taken {
			p.t.Unpin(p.seq)
		}
	}
}

// selectCursor opens a streaming cursor over a SELECT.
func (x *executor) selectCursor(stmt *sql.SelectStmt) (*Rows, error) {
	p, pins, err := x.planSelect(stmt)
	if err != nil {
		return nil, err
	}
	x.e.cursors.Add(1)
	return &Rows{
		cols:  p.Schema().Names(),
		it:    exec.Stream(p, x.runContext(pins)),
		eng:   x.e,
		unpin: pinVersions(p, pins),
	}, nil
}

// execSelect materializes a SELECT into a Result.
func (x *executor) execSelect(stmt *sql.SelectStmt) (*Result, error) {
	p, pins, err := x.planSelect(stmt)
	if err != nil {
		return nil, err
	}
	rows, err := exec.Collect(exec.Stream(p, x.runContext(pins)))
	if err != nil {
		return nil, err
	}
	res := &Result{Kind: "SELECT", Columns: p.Schema().Names()}
	for _, tr := range rows {
		res.Rows = append(res.Rows, tr.Row)
	}
	return res, nil
}

func (x *executor) checkSelectPrivileges(bound *plan.Bound) error {
	role := x.s.Role()
	for entryID := range bound.Deps {
		if !x.e.cat.HasPrivilege(entryID, catalog.PrivSelect, role) {
			entry, err := x.e.cat.GetByID(entryID)
			name := fmt.Sprintf("object %d", entryID)
			if err == nil {
				name = entry.Name
			}
			return fmt.Errorf("dyntables: role %q lacks SELECT on %s", role, name)
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// CREATE
// ---------------------------------------------------------------------------

func (x *executor) execCreateTable(stmt *sql.CreateTableStmt) (*Result, error) {
	e := x.e
	now := e.txns.Now()
	rec := &persist.CreateTableRecord{Name: stmt.Name, Owner: x.s.Role(),
		OrReplace: stmt.OrReplace, CreatedAt: now}
	var rows [][]types.Value
	switch {
	case stmt.CloneOf != "":
		src, err := e.cat.Get(stmt.CloneOf)
		if err != nil {
			return nil, err
		}
		var srcTable *storage.Table
		switch payload := src.Payload.(type) {
		case *tableObject:
			srcTable = payload.table
		case *core.DynamicTable:
			srcTable = payload.Storage
		default:
			return nil, fmt.Errorf("dyntables: cannot clone %s", src.Kind)
		}
		key, ok := e.keyOf(srcTable.ID())
		if !ok {
			return nil, fmt.Errorf("dyntables: clone source %s has no table key", stmt.CloneOf)
		}
		rec.CloneOfKey, rec.CloneAt = key, now
		rec.Schema = persist.EncodeSchema(srcTable.Schema())
	case stmt.AsSelect != nil:
		res, err := x.execSelect(stmt.AsSelect)
		if err != nil {
			return nil, err
		}
		bound, err := plan.NewBinder(e).BindSelect(stmt.AsSelect)
		if err != nil {
			return nil, err
		}
		rec.Schema = persist.EncodeSchema(plan.Optimize(bound.Plan).Schema())
		rows = res.Rows
	default:
		schema := types.Schema{}
		for _, col := range stmt.Columns {
			kind, err := types.KindFromName(col.TypeName)
			if err != nil {
				return nil, err
			}
			schema.Columns = append(schema.Columns, types.Column{Name: col.Name, Kind: kind})
		}
		rec.Schema = persist.EncodeSchema(schema)
	}
	rec.EntryID = e.entryIDFor(stmt.Name, stmt.OrReplace)
	rec.TableKey = e.newTableKey()
	if err := e.execDDL(&persist.Record{Kind: persist.KindCreateTable, CreateTable: rec}); err != nil {
		return nil, err
	}
	if len(rows) > 0 {
		table, _ := e.keyedTable(rec.TableKey)
		tx := e.txns.Begin()
		var cs delta.ChangeSet
		for _, r := range rows {
			cs.AddInsert(table.NextRowID(), r)
		}
		if err := tx.Write(table, cs); err != nil {
			tx.Abort()
			return nil, err
		}
		if _, err := tx.Commit(); err != nil {
			return nil, err
		}
	}
	return &Result{Kind: "CREATE TABLE", Message: fmt.Sprintf("table %s created", stmt.Name)}, nil
}

func (x *executor) execCreateView(stmt *sql.CreateViewStmt) (*Result, error) {
	e := x.e
	// Validate the definition and capture dependencies. Views over
	// INFORMATION_SCHEMA are allowed: they expand at query time, so each
	// query re-materializes the current metadata snapshot.
	bound, err := plan.NewBinder(e).BindSelect(stmt.Query)
	if err != nil {
		return nil, fmt.Errorf("dyntables: invalid view definition: %w", err)
	}
	if err := e.execDDL(&persist.Record{Kind: persist.KindCreateView, CreateView: &persist.CreateViewRecord{
		Name:      stmt.Name,
		Owner:     x.s.Role(),
		EntryID:   e.entryIDFor(stmt.Name, stmt.OrReplace),
		OrReplace: stmt.OrReplace,
		Text:      stmt.Text,
		Deps:      depIDs(bound.Deps),
		CreatedAt: e.txns.Now(),
	}}); err != nil {
		return nil, err
	}
	return &Result{Kind: "CREATE VIEW", Message: fmt.Sprintf("view %s created", stmt.Name)}, nil
}

func depIDs(deps map[int64]int64) []int64 {
	out := make([]int64, 0, len(deps))
	for id := range deps {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func (x *executor) execCreateWarehouse(stmt *sql.CreateWarehouseStmt) (*Result, error) {
	e := x.e
	size, err := warehouse.ParseSize(stmt.Size)
	if err != nil {
		return nil, err
	}
	autoSuspend := stmt.AutoSuspend
	if autoSuspend == 0 {
		autoSuspend = 10 * time.Minute
	}
	rec := &persist.CreateWhRecord{
		Name:        stmt.Name,
		Owner:       x.s.Role(),
		OrReplace:   stmt.OrReplace,
		Size:        int(size),
		AutoSuspend: int64(autoSuspend / time.Microsecond),
		CreatedAt:   e.txns.Now(),
	}
	// OR REPLACE of a live warehouse resizes it in place: it keeps its
	// entry and its billing history, and the record carries no entry ID.
	// Anything else installs a new entry under the catalog's rules.
	_, gerr := e.Warehouse(stmt.Name)
	replaced := stmt.OrReplace && gerr == nil
	if !replaced {
		rec.EntryID = e.entryIDFor(stmt.Name, stmt.OrReplace)
	}
	if err := e.execDDL(&persist.Record{Kind: persist.KindCreateWh, CreateWh: rec}); err != nil {
		return nil, err
	}
	if replaced {
		return &Result{Kind: "CREATE WAREHOUSE", Message: "warehouse replaced"}, nil
	}
	return &Result{Kind: "CREATE WAREHOUSE", Message: fmt.Sprintf("warehouse %s created", stmt.Name)}, nil
}

func (x *executor) execCreateDynamicTable(stmt *sql.CreateDynamicTableStmt) (*Result, error) {
	e := x.e
	if stmt.CloneOf != "" {
		return x.cloneDynamicTable(stmt)
	}
	if stmt.Warehouse == "" {
		return nil, fmt.Errorf("dyntables: dynamic table %s requires WAREHOUSE", stmt.Name)
	}
	if _, err := e.Warehouse(stmt.Warehouse); err != nil {
		return nil, err
	}
	if err := checkTargetLag(stmt.Lag); err != nil {
		return nil, err
	}
	bound, mode, err := e.ctrl.Build(stmt)
	if err != nil {
		return nil, err
	}
	// Dependencies and cycle check (§3.1.1: cycles are not allowed).
	deps := depIDs(bound.Deps)
	entryID := e.entryIDFor(stmt.Name, stmt.OrReplace)
	if e.cat.WouldCycle(entryID, deps) {
		return nil, fmt.Errorf("dyntables: dynamic table %s would create a dependency cycle", stmt.Name)
	}
	if err := e.execDDL(&persist.Record{Kind: persist.KindCreateDT, CreateDT: &persist.CreateDTRecord{
		Name:          stmt.Name,
		Owner:         x.s.Role(),
		EntryID:       entryID,
		TableKey:      e.newTableKey(),
		OrReplace:     stmt.OrReplace,
		Text:          stmt.Text,
		LagKind:       int(stmt.Lag.Kind),
		LagMicros:     int64(stmt.Lag.Duration / time.Microsecond),
		Warehouse:     stmt.Warehouse,
		DeclaredMode:  int(stmt.Mode),
		EffectiveMode: int(mode),
		Schema:        persist.EncodeSchema(bound.Plan.Schema()),
		Deps:          deps,
		CreatedAt:     e.txns.Now(),
	}}); err != nil {
		return nil, err
	}
	_, dt, err := e.dynamicTable(stmt.Name)
	if err != nil {
		return nil, err
	}
	e.recordDTGraph(dt.Name, deps)

	// Initialization (§3.1.2): synchronous by default, reusing a recent
	// upstream data timestamp when possible.
	if stmt.Initialize != "ON_SCHEDULE" {
		initTS, err := e.ctrl.ChooseInitTimestamp(dt, e.clk.Now())
		if err != nil {
			return nil, err
		}
		if err := e.refreshAt(dt, initTS); err != nil {
			return nil, fmt.Errorf("dyntables: initializing %s: %w", stmt.Name, err)
		}
	}
	return &Result{Kind: "CREATE DYNAMIC TABLE",
		Message: fmt.Sprintf("dynamic table %s created (%s refresh mode)", stmt.Name, mode)}, nil
}

// cloneDynamicTable implements CREATE DYNAMIC TABLE x CLONE y (§3.4):
// metadata-only copy of contents; the clone keeps the source's frontier so
// it avoids reinitialization. CLONE statements override nothing: the
// clone keeps the source's definition, lag and modes.
func (x *executor) cloneDynamicTable(stmt *sql.CreateDynamicTableStmt) (*Result, error) {
	e := x.e
	_, src, err := e.dynamicTable(stmt.CloneOf)
	if err != nil {
		return nil, err
	}
	bound, err := plan.NewBinder(e).BindSelect(mustParseSelect(src.Text))
	if err != nil {
		return nil, err
	}
	deps := depIDs(bound.Deps)
	cloneAt := e.txns.Now()
	if err := e.execDDL(&persist.Record{Kind: persist.KindCreateDT, CreateDT: &persist.CreateDTRecord{
		Name:          stmt.Name,
		Owner:         x.s.Role(),
		EntryID:       e.entryIDFor(stmt.Name, false),
		TableKey:      e.newTableKey(),
		Text:          src.Text,
		LagKind:       int(src.Lag.Kind),
		LagMicros:     int64(src.Lag.Duration / time.Microsecond),
		Warehouse:     src.Warehouse,
		DeclaredMode:  int(src.DeclaredMode),
		EffectiveMode: int(src.EffectiveMode),
		Schema:        persist.EncodeSchema(src.Storage.Schema()),
		Deps:          deps,
		CreatedAt:     cloneAt,
		CloneOf:       stmt.CloneOf,
		CloneAt:       cloneAt,
	}}); err != nil {
		return nil, err
	}
	e.recordDTGraph(stmt.Name, deps)
	return &Result{Kind: "CREATE DYNAMIC TABLE",
		Message: fmt.Sprintf("dynamic table %s cloned from %s", stmt.Name, stmt.CloneOf)}, nil
}

func mustParseSelect(text string) *sql.SelectStmt {
	stmt, err := sql.Parse(text)
	if err != nil {
		panic(fmt.Sprintf("dyntables: stored defining query failed to parse: %v", err))
	}
	return stmt.(*sql.SelectStmt)
}

// refreshAt refreshes the DT at the given data timestamp, first ensuring
// every upstream DT has a version at exactly that timestamp (manual
// refresh semantics, §3.1.2).
func (e *Engine) refreshAt(dt *core.DynamicTable, dataTS time.Time) error {
	ups, err := e.ctrl.Upstreams(dt)
	if err != nil {
		return err
	}
	for _, up := range ups {
		if _, ok := up.VersionAtDataTS(dataTS); !ok {
			if err := e.refreshAt(up, dataTS); err != nil {
				return err
			}
		}
	}
	rec, err := e.ctrl.Refresh(dt, dataTS)
	if err != nil {
		return err
	}
	// Charge the warehouse for non-trivial work.
	if rec.Action != core.ActionNoData && rec.Action != core.ActionSkip {
		if wh, werr := e.Warehouse(dt.Warehouse); werr == nil {
			job := wh.Submit(dataTS, rec.SourceRowsScanned, e.model)
			// Place the refresh and its job at the job's virtual timing
			// (manual refreshes run outside a scheduler tick: no wave, no
			// worker slot).
			dt.Place(dataTS, core.Execution{Wave: -1, Worker: -1, Start: job.Start, End: job.End, Job: &job}, nil)
		}
	}
	return nil
}

// manualRefresh implements Session.ManualRefresh under the statement lock.
func (x *executor) manualRefresh(name string) error {
	e := x.e
	entry, dt, err := e.dynamicTable(name)
	if err != nil {
		return err
	}
	role := x.s.Role()
	if !e.cat.HasPrivilege(entry.ID, catalog.PrivOperate, role) {
		return fmt.Errorf("dyntables: role %q lacks OPERATE on %s", role, name)
	}
	return e.refreshAt(dt, e.clk.Now())
}

// ---------------------------------------------------------------------------
// DML
// ---------------------------------------------------------------------------

func (x *executor) execInsert(stmt *sql.InsertStmt) (*Result, error) {
	e := x.e
	_, table, err := e.baseTable(stmt.Table)
	if err != nil {
		return nil, err
	}
	schema := table.Schema()

	// Column targets default to the full schema.
	targets := make([]int, 0, schema.Len())
	if len(stmt.Columns) == 0 {
		for i := 0; i < schema.Len(); i++ {
			targets = append(targets, i)
		}
	} else {
		for _, name := range stmt.Columns {
			idx := schema.Index(name)
			if idx < 0 {
				return nil, fmt.Errorf("dyntables: table %s has no column %q", stmt.Table, name)
			}
			targets = append(targets, idx)
		}
	}

	ev := &plan.EvalContext{Now: e.clk.Now(), Params: x.params}
	newRows := make([]types.Row, 0, len(stmt.Rows))
	switch {
	case len(stmt.Rows) > 0:
		binder := plan.NewBinder(e)
		for _, exprs := range stmt.Rows {
			if err := x.canceled(); err != nil {
				return nil, err
			}
			if len(exprs) != len(targets) {
				return nil, fmt.Errorf("dyntables: INSERT has %d values for %d columns", len(exprs), len(targets))
			}
			row := make(types.Row, schema.Len())
			for i, expr := range exprs {
				bound, err := binder.BindConstExpr(expr)
				if err != nil {
					return nil, err
				}
				v, err := plan.Eval(bound, nil, ev)
				if err != nil {
					return nil, err
				}
				coerced, err := coerce(v, schema.Column(targets[i]).Kind)
				if err != nil {
					return nil, fmt.Errorf("dyntables: column %s: %w", schema.Column(targets[i]).Name, err)
				}
				row[targets[i]] = coerced
			}
			newRows = append(newRows, row)
		}
	case stmt.Query != nil:
		res, err := x.execSelect(stmt.Query)
		if err != nil {
			return nil, err
		}
		for _, r := range res.Rows {
			if len(r) != len(targets) {
				return nil, fmt.Errorf("dyntables: INSERT SELECT produces %d columns for %d targets", len(r), len(targets))
			}
			row := make(types.Row, schema.Len())
			for i, v := range r {
				coerced, err := coerce(v, schema.Column(targets[i]).Kind)
				if err != nil {
					return nil, err
				}
				row[targets[i]] = coerced
			}
			newRows = append(newRows, row)
		}
	default:
		return nil, fmt.Errorf("dyntables: INSERT requires VALUES or SELECT")
	}

	tx := e.txns.Begin()
	if stmt.Overwrite {
		contents := make(map[string]types.Row, len(newRows))
		for _, r := range newRows {
			contents[table.NextRowID()] = r
		}
		if err := tx.Overwrite(table, contents); err != nil {
			tx.Abort()
			return nil, err
		}
	} else {
		cs := delta.ChangeSet{Changes: make([]delta.Change, 0, len(newRows))}
		for _, r := range newRows {
			cs.AddInsert(table.NextRowID(), r)
		}
		if err := tx.Write(table, cs); err != nil {
			tx.Abort()
			return nil, err
		}
	}
	if _, err := tx.Commit(); err != nil {
		return nil, err
	}
	return &Result{Kind: "INSERT", RowsAffected: len(newRows)}, nil
}

// coerce casts a value to the column kind, tolerating NULL and exact
// matches.
func coerce(v types.Value, kind types.Kind) (types.Value, error) {
	if v.IsNull() || v.Kind() == kind {
		return v, nil
	}
	return types.Cast(v, kind)
}

func (x *executor) execUpdate(stmt *sql.UpdateStmt) (*Result, error) {
	e := x.e
	_, table, err := e.baseTable(stmt.Table)
	if err != nil {
		return nil, err
	}
	schema := table.Schema()
	binder := plan.NewBinder(e)
	where, assignments, err := binder.BindDMLExprs(stmt.Table, schema, stmt.Where, stmt.Set)
	if err != nil {
		return nil, err
	}

	tx := e.txns.Begin()
	ev := &plan.EvalContext{Now: e.clk.Now(), Params: x.params}
	b, sel, err := x.dmlTargets(tx, table, where, ev)
	if err != nil {
		tx.Abort()
		return nil, err
	}
	ids, rows := b.IDs(), b.Rows()
	var cs delta.ChangeSet
	affected := 0
	for _, i := range sel {
		row := rows[i]
		newRow := row.Clone()
		for _, a := range assignments {
			v, err := plan.Eval(a.Expr, row, ev)
			if err != nil {
				tx.Abort()
				return nil, err
			}
			coerced, err := coerce(v, schema.Column(a.ColumnIdx).Kind)
			if err != nil {
				tx.Abort()
				return nil, err
			}
			newRow[a.ColumnIdx] = coerced
		}
		if !newRow.Equal(row) {
			cs.AddDelete(ids[i], row)
			cs.AddInsert(ids[i], newRow)
			affected++
		}
	}
	if err := tx.Write(table, cs); err != nil {
		tx.Abort()
		return nil, err
	}
	if _, err := tx.Commit(); err != nil {
		return nil, err
	}
	return &Result{Kind: "UPDATE", RowsAffected: affected}, nil
}

// dmlTargets selects the rows an UPDATE or DELETE touches:
// Filter(where) ∘ Scan on the columnar path, over the batch of the table
// version the transaction reads. It returns the batch and the positions
// of the matching rows, in scan order; a nil where matches every row.
func (x *executor) dmlTargets(tx *txn.Txn, table *storage.Table, where plan.Expr, ev *plan.EvalContext) (*types.Batch, []int, error) {
	b, err := tx.ReadBatch(table)
	if err != nil {
		return nil, nil, err
	}
	if where == nil {
		sel := make([]int, b.Len())
		for i := range sel {
			sel[i] = i
		}
		return b, sel, nil
	}
	sel, err := plan.FilterVec(where, b, nil, ev)
	if err != nil {
		return nil, nil, err
	}
	return b, sel, x.canceled()
}

func (x *executor) execDelete(stmt *sql.DeleteStmt) (*Result, error) {
	e := x.e
	_, table, err := e.baseTable(stmt.Table)
	if err != nil {
		return nil, err
	}
	binder := plan.NewBinder(e)
	where, _, err := binder.BindDMLExprs(stmt.Table, table.Schema(), stmt.Where, nil)
	if err != nil {
		return nil, err
	}

	tx := e.txns.Begin()
	b, sel, err := x.dmlTargets(tx, table, where, &plan.EvalContext{Now: e.clk.Now(), Params: x.params})
	if err != nil {
		tx.Abort()
		return nil, err
	}
	ids, rows := b.IDs(), b.Rows()
	var cs delta.ChangeSet
	for _, i := range sel {
		cs.AddDelete(ids[i], rows[i])
	}
	affected := cs.Len()
	if err := tx.Write(table, cs); err != nil {
		tx.Abort()
		return nil, err
	}
	if _, err := tx.Commit(); err != nil {
		return nil, err
	}
	return &Result{Kind: "DELETE", RowsAffected: affected}, nil
}

// ---------------------------------------------------------------------------
// DROP / UNDROP / ALTER
// ---------------------------------------------------------------------------

func (x *executor) execDrop(stmt *sql.DropStmt) (*Result, error) {
	// Alerts live in the watchdog registry, not the catalog.
	if stmt.Kind == "ALERT" {
		return x.execDropAlert(stmt)
	}
	if ent, err := x.e.cat.Get(stmt.Name); err == nil {
		if err := checkObjectKind("DROP", stmt.Kind, stmt.Name, ent); err != nil {
			return nil, err
		}
	}
	if err := x.e.execDDL(&persist.Record{Kind: persist.KindDrop,
		Drop: &persist.DropRecord{Name: stmt.Name, TS: x.e.txns.Now()}}); err != nil {
		return nil, err
	}
	return &Result{Kind: "DROP", Message: fmt.Sprintf("%s %s dropped", stmt.Kind, stmt.Name)}, nil
}

func (x *executor) execUndrop(stmt *sql.UndropStmt) (*Result, error) {
	if stmt.Kind == "ALERT" {
		return nil, fmt.Errorf("dyntables: UNDROP does not support alerts")
	}
	if ent, ok := x.e.cat.LastDropped(stmt.Name); ok {
		if err := checkObjectKind("UNDROP", stmt.Kind, stmt.Name, ent); err != nil {
			return nil, err
		}
	}
	if err := x.e.execDDL(&persist.Record{Kind: persist.KindUndrop,
		Undrop: &persist.DropRecord{Name: stmt.Name, TS: x.e.txns.Now()}}); err != nil {
		return nil, err
	}
	return &Result{Kind: "UNDROP", Message: fmt.Sprintf("%s %s restored", stmt.Kind, stmt.Name)}, nil
}

// checkObjectKind rejects a DROP, UNDROP, RENAME or SWAP whose object kind
// is not the kind of the entry the name reaches. Tables, views, DTs and warehouses
// share one namespace, so the name alone could reach an object of another
// kind. The check runs at the statement, before any record is written.
func checkObjectKind(verb, kind, name string, ent *catalog.Entry) error {
	if ent.Kind.String() != kind {
		return fmt.Errorf("dyntables: cannot %s %s %s: %s is a %s", verb, kind, name, name, ent.Kind)
	}
	return nil
}

func (x *executor) execAlter(stmt *sql.AlterStmt) (*Result, error) {
	e := x.e
	if stmt.Kind == "ALERT" {
		return x.execAlterAlert(stmt)
	}
	switch stmt.Action {
	case "RENAME", "SWAP":
		names := []string{stmt.Name}
		if stmt.Action == "SWAP" {
			names = append(names, stmt.Target)
		}
		for _, name := range names {
			if ent, err := e.cat.Get(name); err == nil {
				if err := checkObjectKind(stmt.Action, stmt.Kind, name, ent); err != nil {
					return nil, err
				}
			}
		}
		rr := &persist.RenameRecord{Name: stmt.Name, Target: stmt.Target, TS: e.txns.Now()}
		rec := &persist.Record{Kind: persist.KindRename, Rename: rr}
		msg := "renamed"
		if stmt.Action == "SWAP" {
			rec = &persist.Record{Kind: persist.KindSwap, Swap: rr}
			msg = "swapped"
		}
		if err := e.execDDL(rec); err != nil {
			return nil, err
		}
		return &Result{Kind: "ALTER", Message: msg}, nil
	case "REFRESH":
		// Durable via the refresh's own commit + frontier records.
		if err := x.manualRefresh(stmt.Name); err != nil {
			return nil, err
		}
		return &Result{Kind: "ALTER", Message: stmt.Action}, nil
	case "SUSPEND", "RESUME", "SET_LAG", "SET_MODE":
		entry, dt, err := e.dynamicTable(stmt.Name)
		if err != nil {
			return nil, err
		}
		role := x.s.Role()
		if !e.cat.HasPrivilege(entry.ID, catalog.PrivOperate, role) {
			return nil, fmt.Errorf("dyntables: role %q lacks OPERATE on %s", role, stmt.Name)
		}
		rec := &persist.AlterDTRecord{Name: stmt.Name, Action: stmt.Action}
		switch stmt.Action {
		case "SET_LAG":
			if err := checkTargetLag(*stmt.Lag); err != nil {
				return nil, err
			}
			rec.LagKind = int(stmt.Lag.Kind)
			rec.LagMicros = int64(stmt.Lag.Duration / time.Microsecond)
		case "SET_MODE":
			rec.Mode = int(*stmt.Mode)
		}
		if err := e.execDDL(&persist.Record{Kind: persist.KindAlterDT, AlterDT: rec}); err != nil {
			return nil, err
		}
		if stmt.Action == "SET_MODE" {
			return &Result{Kind: "ALTER",
				Message: fmt.Sprintf("REFRESH_MODE = %s (effective %s)", stmt.Mode, dt.CurrentMode())}, nil
		}
		return &Result{Kind: "ALTER", Message: stmt.Action}, nil
	default:
		return nil, fmt.Errorf("dyntables: unsupported ALTER action %q", stmt.Action)
	}
}

// execAlterSystem applies engine-wide runtime tuning. It runs under the
// exclusive statement lock (no refresh or differentiation is in flight),
// so the knobs swap without racing readers. The settings are process
// state, not catalog state: they are not write-ahead-logged, and a
// reopened engine starts from its Config.
func (x *executor) execAlterSystem(stmt *sql.AlterSystemStmt) (*Result, error) {
	e := x.e
	switch stmt.Param {
	case "REFRESH_WORKERS":
		// Same semantics as Config.RefreshWorkers: 0 is the serial
		// deterministic default. (Host-derived width has no SQL spelling;
		// use Config{RefreshWorkers: -1} at construction.)
		if stmt.Value < 0 {
			return nil, fmt.Errorf("dyntables: REFRESH_WORKERS must be >= 0 (0 = serial)")
		}
		n := int(stmt.Value)
		if n == 0 {
			n = 1
		}
		e.refr.SetWorkers(n)
		return &Result{Kind: "ALTER SYSTEM",
			Message: fmt.Sprintf("REFRESH_WORKERS = %d", e.refr.Workers())}, nil
	case "HISTORY_CAPACITY":
		// Rebounds each DT's refresh-history ring (and so the lag,
		// resource and metering rows derived from it) and every recorder
		// ring (graph edges, requests, statements, alerts), evicting the
		// oldest entries that no longer fit. On an engine built with
		// recording disabled (Config.HistoryCapacity < 0) this turns
		// recording on.
		if stmt.Value <= 0 {
			return nil, fmt.Errorf("dyntables: HISTORY_CAPACITY must be > 0")
		}
		n := int(stmt.Value)
		e.rec.SetEnabled(true)
		e.rec.SetCapacity(n)
		// Tracing follows the same switch but keeps its own bounded ring
		// (root count, not event count), so it is enabled, not resized.
		e.trc.SetEnabled(true)
		e.ctrl.HistoryCapacity = n
		for _, entry := range e.cat.List(catalog.KindDynamicTable) {
			if dt, ok := entry.Payload.(*core.DynamicTable); ok {
				dt.SetHistoryCapacity(n)
			}
		}
		return &Result{Kind: "ALTER SYSTEM",
			Message: fmt.Sprintf("HISTORY_CAPACITY = %d", n)}, nil
	case "SLOW_QUERY_MS":
		// Trace-retention floor: root traces faster than this keep only
		// their root span (child spans are dropped at finish), so slow
		// statements and refreshes survive longer in the bounded span
		// store. 0 retains every span of every trace.
		if stmt.Value < 0 {
			return nil, fmt.Errorf("dyntables: SLOW_QUERY_MS must be >= 0 (0 = retain all spans)")
		}
		e.trc.SetSlowQueryMs(stmt.Value)
		return &Result{Kind: "ALTER SYSTEM",
			Message: fmt.Sprintf("SLOW_QUERY_MS = %d", stmt.Value)}, nil
	case "COMPACTION_HORIZON":
		// Version-chain retention: n > 0 keeps the last n versions of
		// every table readable and lets the scheduler's sweep fold older
		// change sets into a snapshot; 0 disables compaction (unbounded
		// time travel, the default). The sweep never folds a pinned
		// version or a DT refresh frontier, so lowering the horizon takes
		// effect gradually as cursors close and frontiers advance.
		if stmt.Value < 0 {
			return nil, fmt.Errorf("dyntables: COMPACTION_HORIZON must be >= 0 (0 = keep all versions)")
		}
		e.compactionHorizon = int(stmt.Value)
		return &Result{Kind: "ALTER SYSTEM",
			Message: fmt.Sprintf("COMPACTION_HORIZON = %d", stmt.Value)}, nil
	case "ADAPTIVE_REFRESH":
		// Gates the per-refresh REFRESH_MODE=AUTO chooser: 0 disables
		// (AUTO falls back to its static resolution), 1 enables, n > 1
		// enables with a smoothing window of n refreshes. Sticky per-DT
		// decisions persist across a disable; re-enabling resumes from
		// them.
		switch {
		case stmt.Value < 0:
			return nil, fmt.Errorf("dyntables: ADAPTIVE_REFRESH must be >= 0 (0 = off, 1 = on, n > 1 = on with window n)")
		case stmt.Value == 0:
			e.ctrl.Adaptive.SetEnabled(false)
			return &Result{Kind: "ALTER SYSTEM", Message: "ADAPTIVE_REFRESH = 0 (disabled)"}, nil
		default:
			e.ctrl.Adaptive.SetEnabled(true)
			if stmt.Value > 1 {
				e.ctrl.Adaptive.SetWindow(int(stmt.Value))
			}
			return &Result{Kind: "ALTER SYSTEM",
				Message: fmt.Sprintf("ADAPTIVE_REFRESH = 1 (window %d)", e.ctrl.Adaptive.Config().Window)}, nil
		}
	default:
		return nil, fmt.Errorf("dyntables: unknown system parameter %q", stmt.Param)
	}
}

// ---------------------------------------------------------------------------
// SHOW / EXPLAIN
// ---------------------------------------------------------------------------

// showTables maps each SHOW statement to the INFORMATION_SCHEMA table
// it lists.
var showTables = map[string]string{
	"DYNAMIC TABLES": InfoSchemaDynamicTables,
	"HEALTH":         InfoSchemaDTHealth,
	"ALERTS":         InfoSchemaAlerts,
}

// execShow renders engine metadata as a result set. SHOW statements are
// the operator-facing shorthand over the INFORMATION_SCHEMA virtual
// tables: the same rows, no query required. SHOW WAREHOUSES reads a
// table of the same form that is not registered.
func (x *executor) execShow(stmt *sql.ShowStmt) (*Result, error) {
	var vt *plan.VirtualTable
	if stmt.Kind == "WAREHOUSES" {
		vt = x.e.warehousesTable()
	} else if name, ok := showTables[stmt.Kind]; ok {
		vt = x.e.virt.Table(name)
	}
	if vt == nil {
		return nil, fmt.Errorf("dyntables: unsupported SHOW %s", stmt.Kind)
	}
	rows, err := vt.Rows()
	if err != nil {
		return nil, err
	}
	res := &Result{Kind: "SHOW " + stmt.Kind, Columns: vt.Schema.Names(), Rows: make([][]types.Value, len(rows))}
	for i, r := range rows {
		res.Rows[i] = r
	}
	return res, nil
}

// execExplain renders the bound plan tree of a SELECT, or — for CREATE
// DYNAMIC TABLE — the refresh-mode decision (incremental vs full and
// why), the upstream frontier the first refresh would read, and the
// defining query's plan. Nothing is executed or created.
func (x *executor) execExplain(stmt *sql.ExplainStmt) (*Result, error) {
	e := x.e
	res := &Result{Kind: "EXPLAIN", Columns: []string{"PLAN"}}
	emit := func(lines ...string) {
		for _, l := range lines {
			res.Rows = append(res.Rows, types.Row{types.NewString(l)})
		}
	}
	planLines := func(p plan.Node, indent string) {
		for _, l := range strings.Split(strings.TrimRight(plan.Explain(p), "\n"), "\n") {
			emit(indent + l)
		}
	}
	if stmt.DTName != "" {
		if err := x.explainDynamicTable(stmt.DTName, emit, planLines); err != nil {
			return nil, err
		}
		return res, nil
	}
	switch t := stmt.Target.(type) {
	case *sql.SelectStmt:
		if stmt.Analyze {
			return x.execExplainAnalyze(t)
		}
		bound, err := plan.NewBinder(e).BindSelect(t)
		if err != nil {
			return nil, err
		}
		planLines(plan.Optimize(bound.Plan), "")
	case *sql.CreateDynamicTableStmt:
		if t.CloneOf != "" {
			return nil, fmt.Errorf("dyntables: EXPLAIN does not support CLONE")
		}
		// Bind exactly the way the real CREATE's controller would — the
		// catalog-only resolver — so EXPLAIN reports the same acceptance
		// or rejection (e.g. defining queries over INFORMATION_SCHEMA).
		bound, err := plan.NewBinder(plan.ResolverFunc(e.resolveCatalogTable)).BindSelect(t.Query)
		if err != nil {
			return nil, err
		}
		incErr := ivm.Incrementalizable(bound.Plan)
		emit(fmt.Sprintf("CREATE DYNAMIC TABLE %s", t.Name))
		switch {
		case t.Mode == sql.RefreshIncremental && incErr != nil:
			emit(fmt.Sprintf("  refresh_mode: ERROR — INCREMENTAL requested but %v", incErr))
		case t.Mode == sql.RefreshFull:
			emit("  refresh_mode: FULL (declared)")
		case incErr == nil:
			mode := "AUTO"
			if t.Mode == sql.RefreshIncremental {
				mode = "declared"
			}
			emit(fmt.Sprintf("  refresh_mode: INCREMENTAL (%s: defining query is incrementalizable)", mode))
			if t.Mode == sql.RefreshAuto && e.ctrl.Adaptive.Enabled() {
				emit(fmt.Sprintf("  adaptive_refresh: enabled (window %d) — effective mode adjusts per refresh from observed change volume",
					e.ctrl.Adaptive.Config().Window))
			}
		default:
			emit(fmt.Sprintf("  refresh_mode: FULL (AUTO: %v)", incErr))
		}
		emit(fmt.Sprintf("  target_lag: %s", targetLagText(t.Lag)))
		if t.Warehouse != "" {
			emit(fmt.Sprintf("  warehouse: %s", t.Warehouse))
		}
		optimized := plan.Optimize(bound.Plan)
		emit("  upstream frontier:")
		seen := map[int64]bool{}
		for _, scan := range plan.Scans(optimized) {
			id := scan.Table.ID()
			if seen[id] {
				continue
			}
			seen[id] = true
			_, up, err := e.catalogEntry(scan.EntryID)
			if err == nil && up != nil && up.Storage == scan.Table {
				emit(fmt.Sprintf("    %s DYNAMIC TABLE version=%d data_ts=%s",
					scan.Name, scan.Table.VersionCount(),
					up.DataTimestamp().UTC().Format(time.RFC3339)))
				continue
			}
			emit(fmt.Sprintf("    %s TABLE version=%d", scan.Name, scan.Table.VersionCount()))
		}
		emit("  plan:")
		planLines(optimized, "    ")
	default:
		return nil, fmt.Errorf("dyntables: EXPLAIN supports SELECT and CREATE DYNAMIC TABLE only")
	}
	return res, nil
}

// execExplainAnalyze runs the SELECT to completion with a per-node
// statistics collector attached and renders the plan tree annotated
// with actual rows, loop counts and inclusive wall time per operator —
// Postgres-style EXPLAIN ANALYZE. The query really executes on the same
// path as a plain SELECT (privilege checks, pinned snapshot, columnar
// chains included) but its rows are discarded; canceling the statement
// context aborts it mid-scan like any other query.
func (x *executor) execExplainAnalyze(stmt *sql.SelectStmt) (*Result, error) {
	p, pins, err := x.planSelect(stmt)
	if err != nil {
		return nil, err
	}
	stats := exec.NewNodeStats()
	rctx := x.runContext(pins)
	rctx.Stats = stats
	meter := obs.StartMeter()
	start := time.Now()
	rows, err := exec.Collect(exec.Stream(p, rctx))
	if err != nil {
		return nil, err
	}
	total := time.Since(start)
	use := meter.Stop()
	annotated := plan.ExplainAnnotated(p, func(n plan.Node) string {
		st, ok := stats.Lookup(n)
		if !ok {
			return " (never executed)"
		}
		return fmt.Sprintf(" (actual rows=%d loops=%d time=%s)",
			st.Rows, st.Loops, st.Time.Round(time.Microsecond))
	})
	res := &Result{Kind: "EXPLAIN", Columns: []string{"PLAN"}}
	for _, l := range strings.Split(strings.TrimRight(annotated, "\n"), "\n") {
		res.Rows = append(res.Rows, types.Row{types.NewString(l)})
	}
	res.Rows = append(res.Rows, types.Row{types.NewString(
		fmt.Sprintf("Execution: %d rows in %s (cpu=%s alloc_bytes=%d allocs=%d)",
			len(rows), total.Round(time.Microsecond),
			use.CPU.Round(time.Microsecond), use.AllocBytes, use.AllocObjects))})
	return res, nil
}

// explainDynamicTable renders EXPLAIN DYNAMIC TABLE <name>: the DT's
// declared and effective refresh modes with the reason the effective
// mode is in force (including the adaptive chooser's last per-refresh
// decision and its cost signals), the frontier, and the defining
// query's plan.
func (x *executor) explainDynamicTable(name string, emit func(...string), planLines func(plan.Node, string)) error {
	e := x.e
	entry, dt, err := e.dynamicTable(name)
	if err != nil {
		return err
	}
	if !e.cat.HasPrivilege(entry.ID, catalog.PrivMonitor, x.s.Role()) {
		return fmt.Errorf("dyntables: role %q lacks MONITOR on %s", x.s.Role(), name)
	}
	mode, reason := dt.ModeDecision()
	emit(fmt.Sprintf("DYNAMIC TABLE %s", dt.Name))
	emit(fmt.Sprintf("  state: %s", dt.State()))
	emit(fmt.Sprintf("  declared_mode: %s", dt.DeclaredMode))
	emit(fmt.Sprintf("  effective_mode: %s", mode))
	emit(fmt.Sprintf("  mode_reason: %s", reason))
	adaptiveState := "disabled"
	if e.ctrl.Adaptive.Enabled() {
		adaptiveState = fmt.Sprintf("enabled (window %d)", e.ctrl.Adaptive.Config().Window)
	}
	emit(fmt.Sprintf("  adaptive_refresh: %s", adaptiveState))
	if rec, ok := dt.LastRecord(); ok && rec.FullScanEstimate > 0 {
		emit(fmt.Sprintf("  last refresh: %s at %s, changed_rows=%d full_scan_estimate=%d",
			rec.Action, rec.DataTS.UTC().Format(time.RFC3339), rec.SourceRowsChanged, rec.FullScanEstimate))
	}
	emit(fmt.Sprintf("  target_lag: %s", targetLagText(dt.Lag)))
	emit(fmt.Sprintf("  warehouse: %s", dt.Warehouse))
	if ts := dt.DataTimestamp(); !ts.IsZero() {
		emit(fmt.Sprintf("  data_ts: %s", ts.UTC().Format(time.RFC3339)))
	}
	bound, err := plan.NewBinder(plan.ResolverFunc(e.resolveCatalogTable)).BindSelect(mustParseSelect(dt.Text))
	if err != nil {
		return err
	}
	emit("  plan:")
	planLines(plan.Optimize(bound.Plan), "    ")
	return nil
}

// ---------------------------------------------------------------------------
// observability
// ---------------------------------------------------------------------------

// DynamicTableStatus is a monitoring snapshot; retrieving it requires the
// MONITOR privilege (§3.4).
type DynamicTableStatus struct {
	Name  string
	State string
	// DeclaredMode is the user's REFRESH_MODE declaration; EffectiveMode
	// the mode currently in force (the adaptive chooser's decision for
	// AUTO DTs) and ModeReason why.
	DeclaredMode  string
	EffectiveMode string
	ModeReason    string
	DataTimestamp time.Time
	Lag           time.Duration
	TargetLag     sql.TargetLag
	Rows          int
	ErrorCount    int
	History       []core.RefreshRecord
}

// describe implements Session.Describe under the statement lock.
func (x *executor) describe(name string) (*DynamicTableStatus, error) {
	e := x.e
	entry, dt, err := e.dynamicTable(name)
	if err != nil {
		return nil, err
	}
	role := x.s.Role()
	if !e.cat.HasPrivilege(entry.ID, catalog.PrivMonitor, role) {
		return nil, fmt.Errorf("dyntables: role %q lacks MONITOR on %s", role, name)
	}
	mode, reason := dt.ModeDecision()
	return &DynamicTableStatus{
		Name:          dt.Name,
		State:         dt.State().String(),
		DeclaredMode:  dt.DeclaredMode.String(),
		EffectiveMode: mode.String(),
		ModeReason:    reason,
		DataTimestamp: dt.DataTimestamp(),
		Lag:           dt.CurrentLag(e.clk.Now()),
		TargetLag:     dt.Lag,
		Rows:          dt.Storage.RowCount(),
		ErrorCount:    dt.ErrorCount(),
		History:       dt.History(),
	}, nil
}

// CheckDVS verifies delayed view semantics for a DT: its stored contents
// must equal its defining query evaluated as of its data timestamp — the
// randomized-testing oracle of §6.1.
func (e *Engine) CheckDVS(name string) error {
	e.stmtMu.RLock()
	defer e.stmtMu.RUnlock()
	_, dt, err := e.dynamicTable(name)
	if err != nil {
		return err
	}
	return e.ctrl.CheckDVS(dt)
}
