package persist

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"dyntables/internal/hlc"
	"dyntables/internal/storage"
	"dyntables/internal/types"
)

// SnapshotName is the checkpoint file name inside a data directory.
const SnapshotName = "snapshot.json"

// Snapshot is a full-state checkpoint. A recovery loads the snapshot and
// then replays WAL records with Seq > WalSeq.
type Snapshot struct {
	Format   int   `json:"format"`
	WalSeq   int64 `json:"wal_seq"`   // last WAL Seq folded into this snapshot
	TableSeq int64 `json:"table_seq"` // next stable table key to allocate

	// Engine time and scheduler cadence state.
	NowMicros    int64 `json:"now_us"`
	EpochMicros  int64 `json:"epoch_us"`
	PhaseMicros  int64 `json:"phase_us"`
	CursorMicros int64 `json:"cursor_us"`

	// Catalog: entries (live and dropped), grants, the DDL log and its
	// counters so IDs continue where they left off.
	Entries       []EntryState  `json:"entries"`
	Grants        []GrantRecord `json:"grants,omitempty"`
	DDLLog        []DDLState    `json:"ddl_log,omitempty"`
	NextCatalogID int64         `json:"next_catalog_id"`
	DDLSeq        int64         `json:"ddl_seq"`

	// Storage: every table's complete version chain, keyed by stable key.
	Tables []TableState `json:"tables"`

	// Warehouses: configuration plus billing simulation state, one row
	// per warehouse entry (live or dropped), in entry-ID order.
	Warehouses []WarehouseState `json:"warehouses,omitempty"`

	// Alerts: watchdog definitions plus evaluation state.
	Alerts []AlertState `json:"alerts,omitempty"`
}

// AlertState is a serialized watchdog alert: the CREATE ALERT definition
// plus the state machine's position, so recovery neither forgets a rule
// nor re-fires an already-delivered action.
type AlertState struct {
	Name           string `json:"name"`
	Owner          string `json:"owner"`
	ScheduleMicros int64  `json:"schedule_us,omitempty"`
	ConditionText  string `json:"condition"`
	ActionKind     string `json:"action_kind"`
	ActionURL      string `json:"action_url,omitempty"`
	ActionSQL      string `json:"action_sql,omitempty"`

	Suspended       bool   `json:"suspended,omitempty"`
	Status          string `json:"status,omitempty"`
	TrueStreak      int    `json:"true_streak,omitempty"`
	FalseStreak     int    `json:"false_streak,omitempty"`
	LastFiredMicros int64  `json:"last_fired_us,omitempty"`
	Firings         int64  `json:"firings,omitempty"`
	NextDueMicros   int64  `json:"next_due_us,omitempty"`
}

// EntryState is a serialized catalog entry. Exactly one payload field is
// set, matching Kind.
type EntryState struct {
	ID         int64         `json:"id"`
	Name       string        `json:"name"`
	Kind       uint8         `json:"kind"`
	Owner      string        `json:"owner"`
	DependsOn  []int64       `json:"depends_on,omitempty"`
	Generation int64         `json:"generation,omitempty"`
	Dropped    bool          `json:"dropped,omitempty"`
	DroppedAt  hlc.Timestamp `json:"dropped_at,omitzero"`

	TableKey  int64    `json:"table_key,omitempty"` // base table payload
	ViewText  string   `json:"view_text,omitempty"` // view payload
	Warehouse string   `json:"warehouse,omitempty"` // warehouse payload (name)
	DT        *DTState `json:"dt,omitempty"`        // dynamic table payload
}

// DTState is the serialized engine-side state of a dynamic table.
type DTState struct {
	Name          string `json:"name"`
	Text          string `json:"text"`
	LagKind       int    `json:"lag_kind"`
	LagMicros     int64  `json:"lag_us"`
	Warehouse     string `json:"warehouse"`
	DeclaredMode  int    `json:"declared_mode"`
	EffectiveMode int    `json:"effective_mode"`
	TableKey      int64  `json:"table_key"`

	Suspended         bool                    `json:"suspended,omitempty"`
	Initialized       bool                    `json:"initialized,omitempty"`
	ErrorCount        int                     `json:"error_count,omitempty"`
	FrontierTSMicros  int64                   `json:"frontier_ts_us,omitempty"`
	FrontierVersions  map[int64]int64         `json:"frontier_versions,omitempty"` // table key -> seq
	Deps              map[int64]int64         `json:"deps,omitempty"`              // entry ID -> generation
	SchemaFingerprint string                  `json:"schema_fp,omitempty"`
	VersionByDataTS   map[int64]int64         `json:"version_by_data_ts,omitempty"`
	CommitByDataTS    map[int64]hlc.Timestamp `json:"commit_by_data_ts,omitempty"`
	History           []RefreshState          `json:"history,omitempty"`
	// PriorDataTSMicros is the data timestamp before the oldest History
	// record (records the ring evicted, or a clone's source); 0 when
	// History is the DT's whole history and in checkpoints written
	// before DTs kept it.
	PriorDataTSMicros int64 `json:"prior_data_ts_us,omitempty"`
	// AdaptiveMode and AdaptiveReason checkpoint the adaptive chooser's
	// sticky per-DT decision (0 = none).
	AdaptiveMode   int    `json:"adaptive_mode,omitempty"`
	AdaptiveReason string `json:"adaptive_reason,omitempty"`
}

// RefreshState is a serialized refresh record; errors survive as text.
type RefreshState struct {
	DataTSMicros      int64 `json:"data_ts_us"`
	Action            uint8 `json:"action"`
	Inserted          int   `json:"inserted,omitempty"`
	Deleted           int   `json:"deleted,omitempty"`
	RowsAfter         int   `json:"rows_after,omitempty"`
	SourceRowsScanned int64 `json:"source_rows,omitempty"`
	// Mode, ModeReason, ChangedRows and FullScanRows persist the
	// per-refresh mode decision and its cost signals; the recovered
	// history keeps feeding the adaptive chooser's smoothing window.
	Mode         int    `json:"mode,omitempty"`
	ModeReason   string `json:"mode_reason,omitempty"`
	ChangedRows  int64  `json:"changed_rows,omitempty"`
	FullScanRows int64  `json:"full_scan_rows,omitempty"`
	Err          string `json:"err,omitempty"`
	// Seq is the record's engine-wide recording sequence number; 0 in
	// checkpoints written before records carried one.
	Seq int64 `json:"seq,omitempty"`
	// Exec is where and when the refresh ran; nil for a refresh never
	// placed on the virtual timeline and in checkpoints written before
	// records carried it.
	Exec *ExecState `json:"exec,omitempty"`
}

// ExecState is a serialized refresh execution: its dependency wave and
// worker slot (-1 outside a scheduler tick) and its virtual job instants.
type ExecState struct {
	Wave        int   `json:"wave"`
	Worker      int   `json:"worker"`
	StartMicros int64 `json:"start_us"`
	EndMicros   int64 `json:"end_us"`
}

// DDLState is a serialized catalog DDL log record.
type DDLState struct {
	Seq    int64         `json:"seq"`
	TS     hlc.Timestamp `json:"ts"`
	Op     string        `json:"op"`
	Kind   uint8         `json:"kind"`
	ID     int64         `json:"id"`
	Name   string        `json:"name"`
	Detail string        `json:"detail,omitempty"`
}

// WarehouseState serializes one warehouse including its billing state.
// EntryID is the catalog entry holding it; rows from older snapshots
// carry none and belong to the entry whose Warehouse field is their Name.
type WarehouseState struct {
	EntryID     int64  `json:"entry_id,omitempty"`
	Name        string `json:"name"`
	Size        int    `json:"size"`
	AutoSuspend int64  `json:"auto_suspend_us"`
	BusyUntilUS int64  `json:"busy_until_us,omitempty"`
	EverUsed    bool   `json:"ever_used,omitempty"`
	BilledUS    int64  `json:"billed_us,omitempty"`
	Resumes     int    `json:"resumes,omitempty"`
}

// TableState is a serialized storage table: the complete version chain,
// so time travel over recovered tables is byte-for-byte identical to the
// uninterrupted run.
type TableState struct {
	Key      int64          `json:"key"`
	Schema   SchemaState    `json:"schema"`
	RowSeq   int64          `json:"row_seq"`
	Versions []VersionState `json:"versions"`
}

// VersionState is one serialized storage version.
type VersionState struct {
	Seq            int64         `json:"seq"`
	Commit         hlc.Timestamp `json:"commit"`
	Changes        []ChangeState `json:"changes,omitempty"`
	Overwrite      bool          `json:"overwrite,omitempty"`
	DataEquivalent bool          `json:"data_equivalent,omitempty"`
	HasSnapshot    bool          `json:"has_snapshot,omitempty"`
	Snapshot       []RowEntry    `json:"snapshot,omitempty"`
	RowCount       int           `json:"row_count"`
}

// EncodeRows serializes a batch's rows in batch order.
func EncodeRows(b *types.Batch) ([]RowEntry, error) {
	out := make([]RowEntry, b.Len())
	for i, row := range b.Rows() {
		enc, err := EncodeRow(row)
		if err != nil {
			return nil, err
		}
		out[i] = RowEntry{ID: b.ID(i), Row: enc}
	}
	return out, nil
}

// DecodeRows restores serialized rows as a batch, in the order written.
func DecodeRows(schema types.Schema, entries []RowEntry) (*types.Batch, error) {
	ids, rows := make([]string, len(entries)), make([]types.Row, len(entries))
	for i, e := range entries {
		row, err := DecodeRow(e.Row)
		if err != nil {
			return nil, err
		}
		ids[i], rows[i] = e.ID, row
	}
	return types.NewBatch(schema, ids, rows), nil
}

// DecodeRowMap restores a row map.
func DecodeRowMap(entries []RowEntry) (map[string]types.Row, error) {
	out := make(map[string]types.Row, len(entries))
	for _, e := range entries {
		row, err := DecodeRow(e.Row)
		if err != nil {
			return nil, err
		}
		out[e.ID] = row
	}
	return out, nil
}

// EncodeTable serializes a storage table's full state under the stable
// key. Each snapshot is written in log order, so the restored log scans as
// the live one did.
func EncodeTable(key int64, st storage.TableState) (TableState, error) {
	out := TableState{
		Key:      key,
		Schema:   EncodeSchema(st.Schema),
		RowSeq:   st.RowSeq,
		Versions: make([]VersionState, len(st.Versions)),
	}
	for i, v := range st.Versions {
		vs := VersionState{
			Seq:            v.Seq,
			Commit:         v.Commit,
			Overwrite:      v.Overwrite,
			DataEquivalent: v.DataEquivalent,
			RowCount:       v.RowCount,
		}
		changes, err := EncodeChangeSet(v.Changes)
		if err != nil {
			return out, err
		}
		vs.Changes = changes
		if snap := st.Snapshots[i]; snap != nil {
			vs.HasSnapshot = true
			if vs.Snapshot, err = EncodeRows(snap); err != nil {
				return out, err
			}
		}
		out.Versions[i] = vs
	}
	return out, nil
}

// DecodeTable restores a storage table from its serialized state.
func DecodeTable(st TableState) (*storage.Table, error) {
	out := storage.TableState{
		Schema:    DecodeSchema(st.Schema),
		RowSeq:    st.RowSeq,
		Versions:  make([]*storage.Version, len(st.Versions)),
		Snapshots: make([]*types.Batch, len(st.Versions)),
	}
	for i, vs := range st.Versions {
		v := &storage.Version{
			Seq:            vs.Seq,
			Commit:         vs.Commit,
			Overwrite:      vs.Overwrite,
			DataEquivalent: vs.DataEquivalent,
			RowCount:       vs.RowCount,
		}
		changes, err := DecodeChangeSet(vs.Changes)
		if err != nil {
			return nil, err
		}
		v.Changes = changes
		if vs.HasSnapshot {
			if out.Snapshots[i], err = DecodeRows(out.Schema, vs.Snapshot); err != nil {
				return nil, err
			}
		}
		out.Versions[i] = v
	}
	return storage.RestoreTable(out)
}

// WriteSnapshot atomically installs a checkpoint in dir: the snapshot is
// written to a temp file, fsynced, and renamed over SnapshotName, so a
// crash mid-checkpoint leaves the previous snapshot intact.
func WriteSnapshot(dir string, snap *Snapshot) error {
	snap.Format = FormatVersion
	data, err := json.Marshal(snap)
	if err != nil {
		return fmt.Errorf("persist: encode snapshot: %w", err)
	}
	tmp, err := os.CreateTemp(dir, SnapshotName+".tmp-*")
	if err != nil {
		return fmt.Errorf("persist: create snapshot temp: %w", err)
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return fmt.Errorf("persist: write snapshot: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return err
	}
	if err := os.Rename(tmpName, filepath.Join(dir, SnapshotName)); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("persist: install snapshot: %w", err)
	}
	return syncDir(dir)
}

// ReadSnapshot loads the checkpoint from dir. A missing snapshot returns
// (nil, nil): the engine starts empty and replays the whole WAL.
func ReadSnapshot(dir string) (*Snapshot, error) {
	data, err := os.ReadFile(filepath.Join(dir, SnapshotName))
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("persist: read snapshot: %w", err)
	}
	var snap Snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		return nil, fmt.Errorf("persist: decode snapshot: %w", err)
	}
	if snap.Format != FormatVersion {
		return nil, fmt.Errorf("persist: snapshot format %d, want %d", snap.Format, FormatVersion)
	}
	return &snap, nil
}

// syncDir fsyncs a directory so a rename survives power loss.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return nil // best effort; not all platforms support dir fsync
	}
	defer d.Close()
	_ = d.Sync()
	return nil
}
