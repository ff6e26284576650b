package dyntables

import (
	"errors"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dyntables/internal/alert"
	"dyntables/internal/catalog"
	"dyntables/internal/core"
	"dyntables/internal/delta"
	"dyntables/internal/hlc"
	"dyntables/internal/ivm"
	"dyntables/internal/persist"
	"dyntables/internal/sql"
	"dyntables/internal/storage"
	"dyntables/internal/types"
	"dyntables/internal/warehouse"
)

// DefaultCheckpointEvery is how many WAL records may accumulate before a
// durable engine folds them into a snapshot checkpoint.
const DefaultCheckpointEvery = 256

// ErrClosed is returned by operations on a closed engine or session.
var ErrClosed = errors.New("dyntables: engine is closed")

func (e *Engine) checkOpen() error {
	if e.closed.Load() {
		return ErrClosed
	}
	return nil
}

// persister is the engine-side durability glue: it observes storage
// commits, frontier advances and grants, and appends WAL records for
// them, naming tables by the engine's stable table keys. It also owns
// checkpoint assembly and WAL replay.
type persister struct {
	eng *Engine
	wal *persist.WAL
	dir string

	mu sync.Mutex
	// err is the first WAL append failure; surfaced at Close/Checkpoint
	// because commit hooks have no error channel.
	err error

	// replaying suppresses record emission while recovery replays the
	// log through the very same engine mutation paths.
	replaying atomic.Bool

	// Durability counters for /metrics and /v1/status: WAL appends with
	// cumulative host time, checkpoints taken, and the wall-clock instant
	// of the last installed checkpoint (0 = never).
	appends        atomic.Int64
	appendNanos    atomic.Int64
	checkpoints    atomic.Int64
	lastCheckpoint atomic.Int64 // unix nanos
}

// PersistStats is a point-in-time durability snapshot: WAL growth and
// append cost, checkpoint count and recency. All fields are gathered
// from lock-free counters, so scraping never blocks commits.
type PersistStats struct {
	// WALRecords and WALBytes describe the live log (since the last
	// checkpoint reset); WALAppendedBytes counts every byte ever appended
	// (monotonic).
	WALRecords       int
	WALBytes         int64
	WALAppendedBytes int64
	// WALAppends counts append calls and WALAppendTime their cumulative
	// host time (fsync-inclusive when the append path syncs).
	WALAppends    int64
	WALAppendTime time.Duration
	// Checkpoints counts installed checkpoints; LastCheckpoint is the
	// wall-clock instant of the newest (zero when none was taken).
	Checkpoints    int64
	LastCheckpoint time.Time
}

// Stats returns the persister's durability counters.
func (p *persister) Stats() PersistStats {
	st := PersistStats{
		WALRecords:       p.wal.Records(),
		WALBytes:         p.wal.Bytes(),
		WALAppendedBytes: p.wal.AppendedBytes(),
		WALAppends:       p.appends.Load(),
		WALAppendTime:    time.Duration(p.appendNanos.Load()),
		Checkpoints:      p.checkpoints.Load(),
	}
	if ns := p.lastCheckpoint.Load(); ns != 0 {
		st.LastCheckpoint = time.Unix(0, ns).UTC()
	}
	return st
}

// append writes a record, capturing the first failure.
func (p *persister) append(rec *persist.Record) {
	if p.replaying.Load() {
		return
	}
	// Appends are counted, not span-recorded: one root trace per WAL
	// record would evict every statement trace from the bounded root
	// ring. The cumulative append time feeds /metrics instead.
	start := time.Now()
	err := p.wal.Append(rec)
	p.appends.Add(1)
	p.appendNanos.Add(time.Since(start).Nanoseconds())
	if err != nil {
		p.mu.Lock()
		if p.err == nil {
			p.err = err
		}
		p.mu.Unlock()
	}
}

// TableCommitted implements storage.CommitSink: every committed version
// becomes a WAL commit record, an overwrite's carrying the new contents in
// their log order. Called with the table lock held.
func (p *persister) TableCommitted(t *storage.Table, v *storage.Version, schema types.Schema, rows *types.Batch) {
	if p.replaying.Load() {
		return
	}
	key, ok := p.eng.keyOf(t.ID())
	if !ok {
		return // table never registered (not reachable from the catalog)
	}
	rec := &persist.Record{Kind: persist.KindCommit, Commit: &persist.CommitRecord{
		TableKey: key,
		Commit:   v.Commit,
		Schema:   persist.EncodeSchema(schema),
	}}
	switch {
	case v.Overwrite:
		rec.Commit.Kind = persist.CommitOverwrite
		entries, err := persist.EncodeRows(rows)
		if err != nil {
			p.fail(err)
			return
		}
		rec.Commit.Rows = entries
	case v.DataEquivalent:
		rec.Commit.Kind = persist.CommitDataEquiv
	default:
		rec.Commit.Kind = persist.CommitApply
		changes, err := persist.EncodeChangeSet(v.Changes)
		if err != nil {
			p.fail(err)
			return
		}
		rec.Commit.Changes = changes
	}
	p.append(rec)
}

// FrontierAdvanced implements core.FrontierSink: every refresh completion
// becomes a WAL frontier record keyed by stable table keys.
func (p *persister) FrontierAdvanced(dt *core.DynamicTable, u core.FrontierUpdate) {
	if p.replaying.Load() {
		return
	}
	versions := make(map[int64]int64, len(u.Versions))
	for storageID, seq := range u.Versions {
		if key, ok := p.eng.keyOf(storageID); ok {
			versions[key] = seq
		}
	}
	p.append(&persist.Record{Kind: persist.KindFrontier, Frontier: &persist.FrontierRecord{
		EntryID:           dt.EntryID,
		DataTSMicros:      u.DataTS.UnixMicro(),
		Versions:          versions,
		VersionSeq:        u.VersionSeq,
		Commit:            u.Commit,
		Deps:              u.Deps,
		SchemaFingerprint: u.SchemaFingerprint,
		Initialized:       u.Initialized,
		AdaptiveValid:     u.AdaptiveValid,
		AdaptiveMode:      int(u.AdaptiveMode),
		AdaptiveReason:    u.AdaptiveReason,
	}})
}

// grantChanged implements catalog.GrantSink.
func (p *persister) grantChanged(objectID int64, priv catalog.Privilege, role string, revoked bool) {
	p.append(&persist.Record{Kind: persist.KindGrant, Grant: &persist.GrantRecord{
		ObjectID:  objectID,
		Privilege: int(priv),
		Role:      role,
		Revoked:   revoked,
	}})
}

func (p *persister) fail(err error) {
	p.mu.Lock()
	if p.err == nil {
		p.err = err
	}
	p.mu.Unlock()
}

func (p *persister) firstErr() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.err
}

// ---------------------------------------------------------------------------
// Open / recovery
// ---------------------------------------------------------------------------

// Open creates or recovers a durable engine rooted at dir. An empty or
// missing directory starts a fresh engine whose state survives Close and
// process exit; a directory with a snapshot and/or WAL is recovered by
// loading the snapshot and replaying the log tail (a torn final record
// from a crash is truncated). Recovery restores the catalog, every
// table's full version chain, and each DT's refresh frontier, so the
// next scheduled refresh resumes incrementally — no forced full refresh.
func Open(dir string, opts ...Option) (*Engine, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("dyntables: create data dir: %w", err)
	}
	snap, err := persist.ReadSnapshot(dir)
	if err != nil {
		return nil, err
	}
	afterSeq := int64(0)
	if snap != nil {
		afterSeq = snap.WalSeq
	}
	wal, records, err := persist.OpenWAL(dir, afterSeq)
	if err != nil {
		return nil, err
	}

	if snap != nil {
		// Resume the virtual clock where the previous process left it.
		opts = append([]Option{WithOrigin(time.UnixMicro(snap.NowMicros).UTC()),
			WithSchedulerPhase(time.Duration(snap.PhaseMicros) * time.Microsecond)}, opts...)
	}
	e := New(opts...)
	// Recovery replays the log through the same engine mutation paths a
	// live refresh uses; quiescing the refresher guarantees no scheduled
	// refresh can interleave with replay, even if a caller races
	// RunScheduler against Open's return.
	e.refr.Quiesce()
	defer e.refr.Resume()
	p := &persister{eng: e, wal: wal, dir: dir}
	p.replaying.Store(true)
	e.pers = p

	if snap != nil {
		if err := e.restoreSnapshot(snap); err != nil {
			wal.Close()
			return nil, err
		}
	}
	for i := range records {
		rec := &records[i]
		if snap != nil && rec.Seq <= snap.WalSeq {
			continue // already folded into the snapshot
		}
		if err := e.replayRecord(rec); err != nil {
			wal.Close()
			return nil, fmt.Errorf("dyntables: replay WAL record %d (%s): %w", rec.Seq, rec.Kind, err)
		}
	}

	// Advance the HLC past every recovered commit so new commits keep
	// ordering forward.
	maxCommit := hlc.Zero
	e.keysMu.Lock()
	for _, t := range e.tableByKey {
		if c := t.LatestVersion().Commit; maxCommit.Less(c) {
			maxCommit = c
		}
	}
	e.keysMu.Unlock()
	if !maxCommit.IsZero() {
		e.txns.Clock().Update(maxCommit)
	}

	p.replaying.Store(false)
	e.ctrl.SetFrontierSink(p)
	e.cat.SetGrantSink(p.grantChanged)

	// Re-observe the recovered DT graph: the observability rings are
	// in-memory (not checkpointed), so the graph history restarts from
	// the recovered dependency edges.
	for _, entry := range e.cat.List(catalog.KindDynamicTable) {
		if dt, ok := entry.Payload.(*core.DynamicTable); ok {
			e.recordDTGraph(dt.Name, entry.DependsOn)
		}
	}
	return e, nil
}

// restoreSnapshot installs checkpointed state into a freshly constructed
// engine.
func (e *Engine) restoreSnapshot(snap *persist.Snapshot) error {
	// Storage: rebuild every table under its stable key.
	for _, ts := range snap.Tables {
		t, err := persist.DecodeTable(ts)
		if err != nil {
			return err
		}
		e.registerTable(ts.Key, t)
	}
	e.keysMu.Lock()
	e.nextKey = max(e.nextKey, snap.TableSeq)
	e.keysMu.Unlock()

	// Warehouses: configuration plus billing state, one row per
	// warehouse entry, live or dropped. Older snapshots key rows by
	// warehouse name, which the entry names in its Warehouse field; a row
	// no entry names is a warehouse the catalog never held, and is not
	// restored.
	whByEntry := make(map[int64]persist.WarehouseState, len(snap.Warehouses))
	whByName := make(map[string]persist.WarehouseState)
	for _, ws := range snap.Warehouses {
		if ws.EntryID != 0 {
			whByEntry[ws.EntryID] = ws
		} else {
			whByName[ws.Name] = ws
		}
	}

	// Catalog: live entries by ID, then dropped entries in drop order so
	// UNDROP pops the most recently dropped first.
	entries := append([]persist.EntryState(nil), snap.Entries...)
	sort.SliceStable(entries, func(i, j int) bool {
		a, b := entries[i], entries[j]
		if a.Dropped != b.Dropped {
			return !a.Dropped
		}
		if a.Dropped {
			if a.DroppedAt != b.DroppedAt {
				return a.DroppedAt.Less(b.DroppedAt)
			}
		}
		return a.ID < b.ID
	})
	for _, es := range entries {
		entry := &catalog.Entry{
			ID:         es.ID,
			Name:       es.Name,
			Kind:       catalog.ObjectKind(es.Kind),
			Owner:      es.Owner,
			DependsOn:  append([]int64(nil), es.DependsOn...),
			Generation: es.Generation,
			Dropped:    es.Dropped,
			DroppedAt:  es.DroppedAt,
		}
		switch entry.Kind {
		case catalog.KindTable:
			t, ok := e.keyedTable(es.TableKey)
			if !ok {
				return fmt.Errorf("dyntables: snapshot entry %s references unknown table key %d", es.Name, es.TableKey)
			}
			entry.Payload = &tableObject{table: t}
		case catalog.KindView:
			entry.Payload = &viewObject{text: es.ViewText}
		case catalog.KindWarehouse:
			ws, ok := whByEntry[es.ID]
			if !ok {
				ws, ok = whByName[es.Warehouse]
			}
			if !ok {
				return fmt.Errorf("dyntables: snapshot entry %s has no warehouse state", es.Name)
			}
			wh := warehouse.New(es.Name, warehouse.Size(ws.Size), time.Duration(ws.AutoSuspend)*time.Microsecond)
			wh.RestoreState(warehouse.State{
				BusyUntil: time.UnixMicro(ws.BusyUntilUS).UTC(),
				EverUsed:  ws.EverUsed,
				Billed:    time.Duration(ws.BilledUS) * time.Microsecond,
				Resumes:   ws.Resumes,
			})
			entry.Payload = wh
		case catalog.KindDynamicTable:
			if es.DT == nil {
				return fmt.Errorf("dyntables: snapshot entry %s has no DT state", es.Name)
			}
			dt, err := e.restoreDT(es.ID, es.DT)
			if err != nil {
				return err
			}
			entry.Payload = dt
		default:
			return fmt.Errorf("dyntables: snapshot entry %s has unknown kind %d", es.Name, es.Kind)
		}
		if err := e.cat.RestoreEntry(entry); err != nil {
			return err
		}
		if dt, ok := entry.Payload.(*core.DynamicTable); ok {
			e.ctrl.Adopt(dt)
		}
	}
	e.cat.RestoreCounters(snap.NextCatalogID, snap.DDLSeq)
	ddl := make([]catalog.DDLRecord, len(snap.DDLLog))
	for i, d := range snap.DDLLog {
		ddl[i] = catalog.DDLRecord{Seq: d.Seq, TS: d.TS, Op: d.Op,
			Kind: catalog.ObjectKind(d.Kind), ID: d.ID, Name: d.Name, Detail: d.Detail}
	}
	e.cat.RestoreDDLLog(ddl)
	for _, g := range snap.Grants {
		e.cat.Grant(g.ObjectID, catalog.Privilege(g.Privilege), g.Role)
	}

	// Alerts: watchdog definitions plus evaluation state.
	for _, as := range snap.Alerts {
		s := alertSnap{
			def: alert.Definition{
				Name:          as.Name,
				Owner:         as.Owner,
				Schedule:      time.Duration(as.ScheduleMicros) * time.Microsecond,
				ConditionText: as.ConditionText,
				Action:        alert.ActionKind(as.ActionKind),
				WebhookURL:    as.ActionURL,
				ActionSQL:     as.ActionSQL,
			},
			state: alert.State{
				Status:      alert.Status(as.Status),
				TrueStreak:  as.TrueStreak,
				FalseStreak: as.FalseStreak,
				Firings:     as.Firings,
			},
			suspended: as.Suspended,
		}
		if as.LastFiredMicros != 0 {
			s.state.LastFired = time.UnixMicro(as.LastFiredMicros).UTC()
		}
		if as.NextDueMicros != 0 {
			s.nextDue = time.UnixMicro(as.NextDueMicros).UTC()
		}
		e.installAlert(s)
	}

	// Scheduler cadence: keep the original epoch and phase so canonical
	// fire instants stay aligned across the restart.
	e.sch.Restore(time.UnixMicro(snap.EpochMicros).UTC(),
		time.Duration(snap.PhaseMicros)*time.Microsecond,
		time.UnixMicro(snap.CursorMicros).UTC())
	if e.vclk != nil {
		e.vclk.AdvanceTo(time.UnixMicro(snap.NowMicros).UTC())
	}
	return nil
}

// restoreDT rebuilds a dynamic table payload from its checkpointed state.
func (e *Engine) restoreDT(entryID int64, st *persist.DTState) (*core.DynamicTable, error) {
	tbl, ok := e.keyedTable(st.TableKey)
	if !ok {
		return nil, fmt.Errorf("dyntables: DT %s references unknown table key %d", st.Name, st.TableKey)
	}
	dt := core.NewDynamicTable(st.Name, st.Text, targetLagOf(st.LagKind, st.LagMicros),
		st.Warehouse, sql.RefreshMode(st.DeclaredMode), sql.RefreshMode(st.EffectiveMode), tbl)
	dt.EntryID = entryID
	// History capacity is process state (not checkpointed); recovered
	// DTs adopt the reopened engine's configured bound like Build does.
	dt.SetHistoryCapacity(e.ctrl.HistoryCapacity)

	cp := core.DTCheckpoint{
		Suspended:         st.Suspended,
		Initialized:       st.Initialized,
		ErrorCount:        st.ErrorCount,
		Deps:              st.Deps,
		SchemaFingerprint: st.SchemaFingerprint,
		VersionByDataTS:   st.VersionByDataTS,
		CommitByDataTS:    st.CommitByDataTS,
		AdaptiveMode:      sql.RefreshMode(st.AdaptiveMode),
		AdaptiveReason:    st.AdaptiveReason,
	}
	cp.Frontier = core.Frontier{
		DataTS:   time.UnixMicro(st.FrontierTSMicros).UTC(),
		Versions: ivm.VersionMap{},
	}
	if st.FrontierTSMicros == 0 {
		cp.Frontier.DataTS = time.Time{}
	}
	if st.PriorDataTSMicros != 0 {
		cp.PriorDataTS = time.UnixMicro(st.PriorDataTSMicros).UTC()
	}
	for key, seq := range st.FrontierVersions {
		src, ok := e.keyedTable(key)
		if !ok {
			return nil, fmt.Errorf("dyntables: DT %s frontier references unknown table key %d", st.Name, key)
		}
		cp.Frontier.Versions[src.ID()] = seq
	}
	for _, h := range st.History {
		rec := core.RefreshRecord{
			DataTS:            time.UnixMicro(h.DataTSMicros).UTC(),
			Action:            core.RefreshAction(h.Action),
			Inserted:          h.Inserted,
			Deleted:           h.Deleted,
			RowsAfter:         h.RowsAfter,
			SourceRowsScanned: h.SourceRowsScanned,
			EffectiveMode:     sql.RefreshMode(h.Mode),
			ModeReason:        h.ModeReason,
			SourceRowsChanged: h.ChangedRows,
			FullScanEstimate:  h.FullScanRows,
			Seq:               h.Seq,
		}
		if h.Err != "" {
			rec.Err = errors.New(h.Err)
		}
		if x := h.Exec; x != nil {
			rec.Exec = &core.Execution{Wave: x.Wave, Worker: x.Worker,
				Start: time.UnixMicro(x.StartMicros).UTC(), End: time.UnixMicro(x.EndMicros).UTC()}
		}
		cp.History = append(cp.History, rec)
	}
	dt.RestoreState(cp)
	return dt, nil
}

// ---------------------------------------------------------------------------
// WAL replay
// ---------------------------------------------------------------------------

// replayRecord replays one WAL record: data-plane records through the
// live storage and controller code with sinks muted, DDL through applyDDL.
func (e *Engine) replayRecord(rec *persist.Record) error {
	switch rec.Kind {
	case persist.KindGrant:
		g := rec.Grant
		if g.Revoked {
			e.cat.Revoke(g.ObjectID, catalog.Privilege(g.Privilege), g.Role)
		} else {
			e.cat.Grant(g.ObjectID, catalog.Privilege(g.Privilege), g.Role)
		}
		return nil
	case persist.KindCommit:
		return e.replayCommit(rec.Commit)
	case persist.KindFrontier:
		return e.replayFrontier(rec.Frontier)
	case persist.KindClock:
		if e.vclk != nil {
			e.vclk.AdvanceTo(time.UnixMicro(rec.Clock.NowMicros).UTC())
		}
		e.sch.Restore(e.sch.Epoch(), e.sch.Phase(), time.UnixMicro(rec.Clock.CursorMicros).UTC())
		return nil
	case persist.KindAlertState:
		as := rec.AlertState
		st := alert.State{
			Status:      alert.Status(as.Status),
			TrueStreak:  as.TrueStreak,
			FalseStreak: as.FalseStreak,
			Firings:     as.Firings,
		}
		if as.LastFiredMicros != 0 {
			st.LastFired = time.UnixMicro(as.LastFiredMicros).UTC()
		}
		var nextDue time.Time
		if as.NextDueMicros != 0 {
			nextDue = time.UnixMicro(as.NextDueMicros).UTC()
		}
		e.setAlertState(as.Name, st, nextDue)
		return nil
	case persist.KindCompact:
		t, ok := e.keyedTable(rec.Compact.TableKey)
		if !ok {
			return fmt.Errorf("dyntables: compact for unknown table key %d", rec.Compact.TableKey)
		}
		_, _, err := t.Compact(rec.Compact.Horizon)
		return err
	default:
		return e.applyDDL(rec)
	}
}

func (e *Engine) replayCommit(rec *persist.CommitRecord) error {
	t, ok := e.keyedTable(rec.TableKey)
	if !ok {
		return fmt.Errorf("dyntables: commit for unknown table key %d", rec.TableKey)
	}
	// Schema evolution (REPLACE TABLE, DT output changes) rides along on
	// commit records; installing it before the version keeps replay
	// equivalent to the live path.
	t.SetSchema(persist.DecodeSchema(rec.Schema))
	switch rec.Kind {
	case persist.CommitApply:
		cs, err := persist.DecodeChangeSet(rec.Changes)
		if err != nil {
			return err
		}
		for _, c := range cs.Changes {
			if c.Action == delta.Insert {
				t.AdvanceRowSeq(c.RowID)
			}
		}
		_, err = t.Apply(cs, rec.Commit)
		return err
	case persist.CommitOverwrite:
		rows, err := persist.DecodeRowMap(rec.Rows)
		if err != nil {
			return err
		}
		for id := range rows {
			t.AdvanceRowSeq(id)
		}
		_, err = t.Overwrite(rows, rec.Commit)
		return err
	case persist.CommitDataEquiv:
		_, err := t.AppendDataEquivalent(rec.Commit)
		return err
	default:
		return fmt.Errorf("dyntables: unknown commit kind %q", rec.Kind)
	}
}

func (e *Engine) replayFrontier(rec *persist.FrontierRecord) error {
	entry, err := e.cat.GetByID(rec.EntryID)
	if err != nil {
		return err
	}
	dt, ok := entry.Payload.(*core.DynamicTable)
	if !ok {
		return fmt.Errorf("dyntables: frontier record for non-DT entry %d", rec.EntryID)
	}
	versions := ivm.VersionMap{}
	for key, seq := range rec.Versions {
		t, ok := e.keyedTable(key)
		if !ok {
			return fmt.Errorf("dyntables: frontier references unknown table key %d", key)
		}
		versions[t.ID()] = seq
	}
	dt.ApplyFrontierUpdate(core.FrontierUpdate{
		DataTS:            time.UnixMicro(rec.DataTSMicros).UTC(),
		Versions:          versions,
		VersionSeq:        rec.VersionSeq,
		Commit:            rec.Commit,
		Deps:              rec.Deps,
		SchemaFingerprint: rec.SchemaFingerprint,
		Initialized:       rec.Initialized,
		AdaptiveValid:     rec.AdaptiveValid,
		AdaptiveMode:      sql.RefreshMode(rec.AdaptiveMode),
		AdaptiveReason:    rec.AdaptiveReason,
	})
	return nil
}

// ---------------------------------------------------------------------------
// live record emission
// ---------------------------------------------------------------------------

// durable reports whether the engine write-ahead-logs mutations.
func (e *Engine) durable() bool {
	return e.pers != nil && !e.pers.replaying.Load()
}

func (e *Engine) logClock() {
	if !e.durable() || e.closed.Load() {
		return
	}
	e.pers.append(&persist.Record{Kind: persist.KindClock, Clock: &persist.ClockRecord{
		NowMicros:    e.clk.Now().UnixMicro(),
		CursorMicros: e.sch.Cursor().UnixMicro(),
	}})
}

// logCompact appends a compaction record so recovery reproduces the fold:
// replayed commits rebuild the full chain, then the compact record folds
// it at the same effective horizon.
func (e *Engine) logCompact(t *storage.Table, horizon int64) {
	if !e.durable() || e.closed.Load() {
		return
	}
	key, ok := e.keyOf(t.ID())
	if !ok {
		return
	}
	e.pers.append(&persist.Record{Kind: persist.KindCompact, Compact: &persist.CompactRecord{
		TableKey: key,
		Horizon:  horizon,
	}})
}

// logAlertState write-ahead-logs an alert's evaluation-state transition
// (firing/resolved edges), so a recovered engine resumes the state
// machine where it left off instead of re-firing a delivered action.
func (e *Engine) logAlertState(name string, st alert.State, nextDue time.Time) {
	if !e.durable() {
		return
	}
	rec := &persist.AlertStateRecord{
		Name:        name,
		Status:      string(st.Status),
		TrueStreak:  st.TrueStreak,
		FalseStreak: st.FalseStreak,
		Firings:     st.Firings,
	}
	if !st.LastFired.IsZero() {
		rec.LastFiredMicros = st.LastFired.UnixMicro()
	}
	if !nextDue.IsZero() {
		rec.NextDueMicros = nextDue.UnixMicro()
	}
	e.pers.append(&persist.Record{Kind: persist.KindAlertState, AlertState: rec})
}

// afterWrite runs the checkpoint cadence check once statement locks are
// released.
func (e *Engine) afterWrite() {
	if !e.durable() || e.closed.Load() {
		return
	}
	if e.pers.wal.Records() >= e.checkpointEvery {
		_ = e.Checkpoint()
	}
}

// ---------------------------------------------------------------------------
// checkpointing
// ---------------------------------------------------------------------------

// Checkpoint folds the WAL into a fresh snapshot: it takes the exclusive
// statement lock (so no commits are in flight), writes the full engine
// state to a temp file, atomically installs it, and resets the WAL. A
// crash between the install and the reset is safe — records already
// folded into the snapshot carry sequence numbers at or below the
// snapshot's watermark and are skipped at recovery.
func (e *Engine) Checkpoint() error {
	if e.pers == nil {
		return fmt.Errorf("dyntables: engine is not durable (use Open)")
	}
	if err := e.checkOpen(); err != nil {
		return err
	}
	e.stmtMu.Lock()
	defer e.stmtMu.Unlock()
	return e.checkpointLocked()
}

func (e *Engine) checkpointLocked() error {
	p := e.pers
	if err := p.firstErr(); err != nil {
		return fmt.Errorf("dyntables: WAL append failed earlier: %w", err)
	}
	root := e.trc.StartRoot("checkpoint")
	defer func() { e.trc.FinishRoot(root) }()
	buildSpan := root.Child("snapshot.build")
	snap, err := e.buildSnapshot()
	buildSpan.End()
	if err != nil {
		return err
	}
	writeSpan := root.Child("snapshot.write")
	err = persist.WriteSnapshot(p.dir, snap)
	writeSpan.End()
	if err != nil {
		return err
	}
	// Drop only what the snapshot folded in: records appended during the
	// state capture by lock-free paths (AdvanceTime's clock records)
	// carry later sequence numbers and survive the reset.
	resetSpan := root.Child("wal.reset")
	err = p.wal.ResetUpTo(snap.WalSeq)
	resetSpan.End()
	if err != nil {
		return err
	}
	p.checkpoints.Add(1)
	p.lastCheckpoint.Store(time.Now().UnixNano())
	return nil
}

func (e *Engine) buildSnapshot() (*persist.Snapshot, error) {
	p := e.pers
	snap := &persist.Snapshot{
		WalSeq:       p.wal.LastSeq(),
		NowMicros:    e.clk.Now().UnixMicro(),
		EpochMicros:  e.sch.Epoch().UnixMicro(),
		PhaseMicros:  int64(e.sch.Phase() / time.Microsecond),
		CursorMicros: e.sch.Cursor().UnixMicro(),
	}

	e.keysMu.Lock()
	snap.TableSeq = e.nextKey
	keys := make([]int64, 0, len(e.tableByKey))
	for key := range e.tableByKey {
		keys = append(keys, key)
	}
	tables := make(map[int64]*storage.Table, len(e.tableByKey))
	for key, t := range e.tableByKey {
		tables[key] = t
	}
	keyOf := make(map[int64]int64, len(e.keyByStorageID))
	for id, key := range e.keyByStorageID {
		keyOf[id] = key
	}
	e.keysMu.Unlock()
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })

	for _, key := range keys {
		ts, err := persist.EncodeTable(key, tables[key].State())
		if err != nil {
			return nil, err
		}
		snap.Tables = append(snap.Tables, ts)
	}

	for _, entry := range e.cat.Entries() {
		es := persist.EntryState{
			ID:         entry.ID,
			Name:       entry.Name,
			Kind:       uint8(entry.Kind),
			Owner:      entry.Owner,
			DependsOn:  append([]int64(nil), entry.DependsOn...),
			Generation: entry.Generation,
			Dropped:    entry.Dropped,
			DroppedAt:  entry.DroppedAt,
		}
		switch payload := entry.Payload.(type) {
		case *tableObject:
			key, ok := keyOf[payload.table.ID()]
			if !ok {
				return nil, fmt.Errorf("dyntables: table %s is not registered for durability", entry.Name)
			}
			es.TableKey = key
		case *viewObject:
			es.ViewText = payload.text
		case *warehouse.Warehouse:
			es.Warehouse = payload.Name
			st := payload.State()
			snap.Warehouses = append(snap.Warehouses, persist.WarehouseState{
				EntryID:     entry.ID,
				Name:        payload.Name,
				Size:        int(payload.Size),
				AutoSuspend: int64(payload.AutoSuspend / time.Microsecond),
				BusyUntilUS: st.BusyUntil.UnixMicro(),
				EverUsed:    st.EverUsed,
				BilledUS:    int64(st.Billed / time.Microsecond),
				Resumes:     st.Resumes,
			})
		case *core.DynamicTable:
			ds, err := e.snapshotDT(payload, keyOf)
			if err != nil {
				return nil, err
			}
			es.DT = ds
		default:
			return nil, fmt.Errorf("dyntables: entry %s has unsupported payload %T", entry.Name, entry.Payload)
		}
		snap.Entries = append(snap.Entries, es)
	}

	for _, g := range e.cat.AllGrants() {
		snap.Grants = append(snap.Grants, persist.GrantRecord{
			ObjectID: g.ObjectID, Privilege: int(g.Privilege), Role: g.Role,
		})
	}
	for _, d := range e.cat.DDLLog() {
		snap.DDLLog = append(snap.DDLLog, persist.DDLState{
			Seq: d.Seq, TS: d.TS, Op: d.Op, Kind: uint8(d.Kind), ID: d.ID, Name: d.Name, Detail: d.Detail,
		})
	}
	snap.NextCatalogID, snap.DDLSeq = e.cat.Counters()

	for _, a := range e.alertSnapshots() {
		as := persist.AlertState{
			Name:           a.def.Name,
			Owner:          a.def.Owner,
			ScheduleMicros: int64(a.def.Schedule / time.Microsecond),
			ConditionText:  a.def.ConditionText,
			ActionKind:     string(a.def.Action),
			ActionURL:      a.def.WebhookURL,
			ActionSQL:      a.def.ActionSQL,
			Suspended:      a.suspended,
			Status:         string(a.state.Status),
			TrueStreak:     a.state.TrueStreak,
			FalseStreak:    a.state.FalseStreak,
			Firings:        a.state.Firings,
		}
		if !a.state.LastFired.IsZero() {
			as.LastFiredMicros = a.state.LastFired.UnixMicro()
		}
		if !a.nextDue.IsZero() {
			as.NextDueMicros = a.nextDue.UnixMicro()
		}
		snap.Alerts = append(snap.Alerts, as)
	}
	return snap, nil
}

func (e *Engine) snapshotDT(dt *core.DynamicTable, keyOf map[int64]int64) (*persist.DTState, error) {
	key, ok := keyOf[dt.Storage.ID()]
	if !ok {
		return nil, fmt.Errorf("dyntables: DT %s storage is not registered for durability", dt.Name)
	}
	cp := dt.Checkpoint()
	st := &persist.DTState{
		Name:              dt.Name,
		Text:              dt.Text,
		LagKind:           int(dt.Lag.Kind),
		LagMicros:         int64(dt.Lag.Duration / time.Microsecond),
		Warehouse:         dt.Warehouse,
		DeclaredMode:      int(dt.DeclaredMode),
		EffectiveMode:     int(dt.EffectiveMode),
		TableKey:          key,
		Suspended:         cp.Suspended,
		Initialized:       cp.Initialized,
		ErrorCount:        cp.ErrorCount,
		Deps:              cp.Deps,
		SchemaFingerprint: cp.SchemaFingerprint,
		VersionByDataTS:   cp.VersionByDataTS,
		CommitByDataTS:    cp.CommitByDataTS,
		AdaptiveMode:      int(cp.AdaptiveMode),
		AdaptiveReason:    cp.AdaptiveReason,
	}
	if !cp.Frontier.DataTS.IsZero() {
		st.FrontierTSMicros = cp.Frontier.DataTS.UnixMicro()
	}
	if !cp.PriorDataTS.IsZero() {
		st.PriorDataTSMicros = cp.PriorDataTS.UnixMicro()
	}
	if len(cp.Frontier.Versions) > 0 {
		st.FrontierVersions = make(map[int64]int64, len(cp.Frontier.Versions))
		for storageID, seq := range cp.Frontier.Versions {
			fk, ok := keyOf[storageID]
			if !ok {
				return nil, fmt.Errorf("dyntables: DT %s frontier references unregistered table %d", dt.Name, storageID)
			}
			st.FrontierVersions[fk] = seq
		}
	}
	for _, h := range cp.History {
		hs := persist.RefreshState{
			DataTSMicros:      h.DataTS.UnixMicro(),
			Action:            uint8(h.Action),
			Inserted:          h.Inserted,
			Deleted:           h.Deleted,
			RowsAfter:         h.RowsAfter,
			SourceRowsScanned: h.SourceRowsScanned,
			Mode:              int(h.EffectiveMode),
			ModeReason:        h.ModeReason,
			ChangedRows:       h.SourceRowsChanged,
			FullScanRows:      h.FullScanEstimate,
			Err:               errText(h.Err),
			Seq:               h.Seq,
		}
		if x := h.Exec; x != nil {
			hs.Exec = &persist.ExecState{Wave: x.Wave, Worker: x.Worker,
				StartMicros: x.Start.UnixMicro(), EndMicros: x.End.UnixMicro()}
		}
		st.History = append(st.History, hs)
	}
	return st, nil
}

// ---------------------------------------------------------------------------
// Close
// ---------------------------------------------------------------------------

// Close shuts the engine down: it invalidates every session's prepared
// statements, and for durable engines takes a final checkpoint, fsyncs
// and closes the WAL. Close is idempotent; it refuses while Rows cursors
// are still open (use ForceClose to override). After Close every
// statement fails with ErrClosed.
func (e *Engine) Close() error {
	if e.closed.Load() {
		return nil
	}
	if n := e.OpenCursors(); n > 0 {
		return fmt.Errorf("dyntables: cannot close engine with %d open cursors (close them or use ForceClose)", n)
	}
	return e.ForceClose()
}

// ForceClose is Close without the open-cursor check: in-flight cursors
// keep reading their pinned in-memory versions but the engine stops
// accepting statements.
func (e *Engine) ForceClose() error {
	if !e.closed.CompareAndSwap(false, true) {
		return nil
	}

	// Invalidate sessions and their prepared statements.
	e.sessMu.Lock()
	sessions := make([]*Session, 0, len(e.sessions))
	for s := range e.sessions {
		sessions = append(sessions, s)
	}
	e.sessions = make(map[*Session]struct{})
	e.sessMu.Unlock()
	for _, s := range sessions {
		s.invalidate()
	}

	if e.pers == nil {
		return nil
	}
	// The exclusive statement lock drains in-flight statements, so every
	// acknowledged write reaches the WAL before the final checkpoint;
	// statements that passed the closed check but not yet the lock fail
	// their re-check under the lock. The WAL is closed under the same
	// critical section so no append can land after it.
	e.stmtMu.Lock()
	err := e.checkpointLocked()
	if werr := e.pers.wal.Close(); err == nil {
		err = werr
	}
	e.stmtMu.Unlock()
	if perr := e.pers.firstErr(); err == nil {
		err = perr
	}
	return err
}

// crash simulates a process crash for tests and benches: the WAL file is
// closed — releasing the data-directory lock — without the final
// checkpoint Close would take, so recovery must replay the log.
func (e *Engine) crash() error {
	if !e.closed.CompareAndSwap(false, true) {
		return nil
	}
	if e.pers != nil {
		return e.pers.wal.Close()
	}
	return nil
}
