package dyntables

// The DDL apply path. Every DDL statement validates (privileges, bind,
// cycle check, lag floor, existence), resolves everything a record needs
// (owner, entry ID, table key, modes, schema) into a persist.Record, and
// hands it to execDDL. applyDDL is the only code that turns a DDL record
// into engine state: live statements and WAL replay both run it, so a
// recovered engine is the engine that acknowledged the statements.

import (
	"fmt"
	"time"

	"dyntables/internal/alert"
	"dyntables/internal/catalog"
	"dyntables/internal/core"
	"dyntables/internal/hlc"
	"dyntables/internal/persist"
	"dyntables/internal/sql"
	"dyntables/internal/storage"
	"dyntables/internal/warehouse"
)

// execDDL applies a validated DDL record and, on a durable engine, then
// appends it to the WAL. An append failure latches in the persister and
// surfaces at Checkpoint and Close, as for every other record.
func (e *Engine) execDDL(rec *persist.Record) error {
	if err := e.applyDDL(rec); err != nil {
		return err
	}
	if e.durable() {
		e.pers.append(rec)
	}
	return nil
}

// applyDDL installs one DDL record. It builds objects from record fields
// only and performs every fallible step before the first mutation, so a
// rejected record leaves the engine unchanged. The one bind is SET_MODE's
// re-resolution of the static refresh mode: the record carries only the
// declared mode.
func (e *Engine) applyDDL(rec *persist.Record) error {
	switch rec.Kind {
	case persist.KindCreateTable:
		return e.applyCreateTable(rec.CreateTable)
	case persist.KindCreateView:
		r := rec.CreateView
		_, err := e.installEntry(r.Name, &viewObject{text: r.Text}, r.Owner, r.Deps, r.CreatedAt, r.OrReplace, r.EntryID)
		return err
	case persist.KindCreateWh:
		return e.applyCreateWarehouse(rec.CreateWh)
	case persist.KindCreateDT:
		return e.applyCreateDT(rec.CreateDT)
	case persist.KindDrop:
		return e.cat.Drop(rec.Drop.Name, rec.Drop.TS)
	case persist.KindUndrop:
		_, err := e.cat.Undrop(rec.Undrop.Name, rec.Undrop.TS)
		return err
	case persist.KindRename:
		r := rec.Rename
		if err := e.cat.Rename(r.Name, r.Target, r.TS); err != nil {
			return err
		}
		e.syncNames(r.Target)
		return nil
	case persist.KindSwap:
		r := rec.Swap
		if err := e.cat.Swap(r.Name, r.Target, r.TS); err != nil {
			return err
		}
		e.syncNames(r.Name, r.Target)
		return nil
	case persist.KindAlterDT:
		return e.applyAlterDT(rec.AlterDT)
	case persist.KindCreateAlert:
		r := rec.CreateAlert
		e.alertMu.Lock()
		defer e.alertMu.Unlock()
		if _, exists := e.alerts[r.Name]; exists && !r.OrReplace {
			return fmt.Errorf("dyntables: alert %s already exists", r.Name)
		}
		e.alerts[r.Name] = &alertEntry{def: alert.Definition{
			Name:          r.Name,
			Owner:         r.Owner,
			Schedule:      time.Duration(r.ScheduleMicros) * time.Microsecond,
			ConditionText: r.ConditionText,
			Action:        alert.ActionKind(r.ActionKind),
			WebhookURL:    r.ActionURL,
			ActionSQL:     r.ActionSQL,
		}}
		return nil
	case persist.KindDropAlert:
		e.alertMu.Lock()
		defer e.alertMu.Unlock()
		if _, ok := e.alerts[rec.DropAlert.Name]; !ok {
			return fmt.Errorf("dyntables: alert %s does not exist", rec.DropAlert.Name)
		}
		delete(e.alerts, rec.DropAlert.Name)
		return nil
	case persist.KindAlterAlert:
		r := rec.AlterAlert
		e.alertMu.Lock()
		defer e.alertMu.Unlock()
		entry, ok := e.alerts[r.Name]
		if !ok {
			return fmt.Errorf("dyntables: alert %s does not exist", r.Name)
		}
		entry.suspended = r.Action == "SUSPEND"
		if !entry.suspended {
			// A resumed alert is due on the next pass.
			entry.nextDue = time.Time{}
		}
		return nil
	default:
		return fmt.Errorf("dyntables: unknown WAL record kind %q", rec.Kind)
	}
}

func (e *Engine) applyCreateTable(r *persist.CreateTableRecord) error {
	var t *storage.Table
	if r.CloneOfKey == 0 {
		t = storage.NewTable(persist.DecodeSchema(r.Schema), r.CreatedAt)
	} else {
		src, ok := e.keyedTable(r.CloneOfKey)
		if !ok {
			return fmt.Errorf("dyntables: clone source table key %d unknown", r.CloneOfKey)
		}
		clone, err := src.Clone(r.CloneAt)
		if err != nil {
			return err
		}
		t = clone
	}
	if _, err := e.installEntry(r.Name, &tableObject{table: t}, r.Owner, nil, r.CreatedAt, r.OrReplace, r.EntryID); err != nil {
		return err
	}
	e.registerTable(r.TableKey, t)
	return nil
}

// applyCreateWarehouse installs a new warehouse entry. A record without
// an entry ID is an OR REPLACE of a live warehouse, which is resized in
// place and keeps its billing history. Logs written before warehouses
// lived only in the catalog also hold records without an entry ID that
// resize no live warehouse (a CREATE on a name a table held, an OR
// REPLACE of a dropped warehouse): the warehouse they made had no
// catalog entry, so they install nothing.
func (e *Engine) applyCreateWarehouse(r *persist.CreateWhRecord) error {
	size, autoSuspend := warehouse.Size(r.Size), time.Duration(r.AutoSuspend)*time.Microsecond
	if r.EntryID != 0 {
		_, err := e.installEntry(r.Name, warehouse.New(r.Name, size, autoSuspend), r.Owner, nil, r.CreatedAt, r.OrReplace, r.EntryID)
		return err
	}
	if wh, err := e.Warehouse(r.Name); err == nil && r.OrReplace {
		wh.Size, wh.AutoSuspend = size, autoSuspend
	}
	return nil
}

func (e *Engine) applyCreateDT(r *persist.CreateDTRecord) error {
	lag := targetLagOf(r.LagKind, r.LagMicros)
	var dt *core.DynamicTable
	if r.CloneOf != "" {
		_, src, err := e.dynamicTable(r.CloneOf)
		if err != nil {
			return err
		}
		if dt, err = src.CloneAt(r.CloneAt); err != nil {
			return err
		}
		dt.Name = r.Name
		dt.Lag = lag
	} else {
		dt = core.NewDynamicTable(r.Name, r.Text, lag, r.Warehouse,
			sql.RefreshMode(r.DeclaredMode), sql.RefreshMode(r.EffectiveMode),
			storage.NewTable(persist.DecodeSchema(r.Schema), r.CreatedAt))
	}
	dt.SetHistoryCapacity(e.ctrl.HistoryCapacity)
	entry, err := e.installEntry(r.Name, dt, r.Owner, r.Deps, r.CreatedAt, r.OrReplace, r.EntryID)
	if err != nil {
		return err
	}
	dt.EntryID = entry.ID
	e.registerTable(r.TableKey, dt.Storage)
	e.ctrl.Adopt(dt)
	return nil
}

func (e *Engine) applyAlterDT(r *persist.AlterDTRecord) error {
	_, dt, err := e.dynamicTable(r.Name)
	if err != nil {
		return err
	}
	switch r.Action {
	case "SUSPEND":
		dt.Suspend()
	case "RESUME":
		dt.Resume()
	case "SET_LAG":
		dt.Lag = targetLagOf(r.LagKind, r.LagMicros)
	case "SET_MODE":
		// Per-DT override of the adaptive chooser: pinning to FULL or
		// INCREMENTAL takes the DT out of adaptive control; setting it
		// back to AUTO re-enters with a fresh (cold-start) decision. An
		// INCREMENTAL pin on a non-incrementalizable query fails here,
		// before anything changes.
		mode := sql.RefreshMode(r.Mode)
		effective, err := e.ctrl.StaticMode(dt, mode)
		if err != nil {
			return err
		}
		dt.DeclaredMode = mode
		dt.EffectiveMode = effective
		dt.ClearAdaptiveDecision()
	default:
		return fmt.Errorf("dyntables: unknown ALTER action %q", r.Action)
	}
	return nil
}

// installEntry adds a catalog entry, or under OR REPLACE swaps the
// payload of an existing one and retires the replaced payload's storage
// table from the key registry: replaced entries have no graveyard, so
// nothing can reach it again. A replaced DT leaves the scheduler's list
// and the compaction floors with its payload. The allocator is
// deterministic, so an entry ID other than wantID means the log is
// corrupt.
func (e *Engine) installEntry(name string, payload catalog.Object, owner string,
	deps []int64, ts hlc.Timestamp, orReplace bool, wantID int64) (*catalog.Entry, error) {
	var entry *catalog.Entry
	var err error
	if orReplace {
		if old, gerr := e.cat.Get(name); gerr == nil {
			switch p := old.Payload.(type) {
			case *tableObject:
				e.deregisterTable(p.table)
			case *core.DynamicTable:
				e.deregisterTable(p.Storage)
			}
		}
		entry, err = e.cat.Replace(name, payload, owner, deps, ts)
	} else {
		entry, err = e.cat.Create(name, payload, owner, deps, ts)
	}
	if err != nil {
		return nil, err
	}
	if entry.ID != wantID {
		return nil, fmt.Errorf("dyntables: %s installed as entry %d, record expects %d", name, entry.ID, wantID)
	}
	return entry, nil
}

// entryIDFor resolves the catalog ID that installing name will carry: the
// existing entry's under OR REPLACE, else the allocator's next. DDL holds
// the exclusive statement lock, so nothing allocates in between.
func (e *Engine) entryIDFor(name string, orReplace bool) int64 {
	if orReplace {
		if entry, err := e.cat.Get(name); err == nil {
			return entry.ID
		}
	}
	last, _ := e.cat.Counters()
	return last + 1
}

// syncNames copies the catalog's names onto the named entries' DT and
// warehouse payloads. RENAME and SWAP call it once the catalog accepted
// the change, so a rejected statement leaves every payload name as it
// was.
func (e *Engine) syncNames(names ...string) {
	for _, name := range names {
		if entry, err := e.cat.Get(name); err == nil {
			switch p := entry.Payload.(type) {
			case *core.DynamicTable:
				p.Name = entry.Name
			case *warehouse.Warehouse:
				p.Name = entry.Name
			}
		}
	}
}

// checkTargetLag enforces the TARGET_LAG minimum (§3.2) for CREATE and
// ALTER alike.
func checkTargetLag(lag sql.TargetLag) error {
	if lag.Kind == sql.LagDuration && lag.Duration < time.Minute {
		return fmt.Errorf("dyntables: TARGET_LAG below the 1 minute minimum (§3.2)")
	}
	return nil
}

// targetLagOf decodes a TARGET_LAG from its record fields.
func targetLagOf(kind int, micros int64) sql.TargetLag {
	return sql.TargetLag{Kind: sql.TargetLagKind(kind), Duration: time.Duration(micros) * time.Microsecond}
}

// ---------------------------------------------------------------------------
// stable table keys
// ---------------------------------------------------------------------------

// newTableKey allocates the stable key a CREATE record assigns to its
// storage table.
func (e *Engine) newTableKey() int64 {
	e.keysMu.Lock()
	defer e.keysMu.Unlock()
	e.nextKey++
	return e.nextKey
}

// registerTable installs a storage table under its stable key and, on a
// durable engine, hooks its commit sink.
func (e *Engine) registerTable(key int64, t *storage.Table) {
	e.keysMu.Lock()
	e.keyByStorageID[t.ID()] = key
	e.tableByKey[key] = t
	if key > e.nextKey {
		e.nextKey = key
	}
	e.keysMu.Unlock()
	if e.pers != nil {
		t.SetCommitSink(e.pers)
	}
}

// deregisterTable forgets a storage table superseded by CREATE OR
// REPLACE: its chain stops being checkpointed and its commits stop being
// logged.
func (e *Engine) deregisterTable(t *storage.Table) {
	t.SetCommitSink(nil)
	e.keysMu.Lock()
	defer e.keysMu.Unlock()
	if key, ok := e.keyByStorageID[t.ID()]; ok {
		delete(e.keyByStorageID, t.ID())
		delete(e.tableByKey, key)
	}
}

func (e *Engine) keyOf(storageID int64) (int64, bool) {
	e.keysMu.Lock()
	defer e.keysMu.Unlock()
	key, ok := e.keyByStorageID[storageID]
	return key, ok
}

func (e *Engine) keyedTable(key int64) (*storage.Table, bool) {
	e.keysMu.Lock()
	defer e.keysMu.Unlock()
	t, ok := e.tableByKey[key]
	return t, ok
}
