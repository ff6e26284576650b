// Package persist implements the durability subsystem: a write-ahead log
// of catalog DDL, storage commits and refresh-frontier advances, plus
// periodic full-state snapshot checkpoints. Together they make an engine
// recoverable: Open loads the latest snapshot, replays the WAL tail
// (tolerating a truncated final record after a crash), and hands back a
// fully recovered engine whose next scheduled refresh resumes
// incrementally from the recovered frontier.
//
// The package owns the on-disk formats (record codec, log framing,
// snapshot layout); the engine package owns the glue that translates
// records into catalog, storage and controller mutations, because catalog
// payloads are engine-side types.
package persist

import (
	"encoding/json"
	"fmt"
	"time"

	"dyntables/internal/delta"
	"dyntables/internal/hlc"
	"dyntables/internal/types"
)

// FormatVersion identifies the WAL and snapshot format; recovery refuses
// files written by a different version rather than misread them.
const FormatVersion = 1

// Record kinds. Every WAL record carries exactly one payload matching its
// kind.
const (
	KindCreateTable = "create_table"
	KindCreateView  = "create_view"
	KindCreateWh    = "create_warehouse"
	KindCreateDT    = "create_dt"
	KindDrop        = "drop"
	KindUndrop      = "undrop"
	KindRename      = "rename"
	KindSwap        = "swap"
	KindAlterDT     = "alter_dt"
	KindGrant       = "grant"
	KindCommit      = "commit"
	KindFrontier    = "frontier"
	KindClock       = "clock"
	KindCreateAlert = "create_alert"
	KindDropAlert   = "drop_alert"
	KindAlterAlert  = "alter_alert"
	KindAlertState  = "alert_state"
	KindCompact     = "compact"
)

// Record is one WAL entry. Seq is assigned by the WAL writer and is
// strictly increasing across checkpoints, which lets recovery skip records
// already folded into a snapshot (the snapshot stores the last folded
// Seq).
type Record struct {
	Seq  int64  `json:"seq"`
	Kind string `json:"kind"`

	CreateTable *CreateTableRecord `json:"create_table,omitempty"`
	CreateView  *CreateViewRecord  `json:"create_view,omitempty"`
	CreateWh    *CreateWhRecord    `json:"create_wh,omitempty"`
	CreateDT    *CreateDTRecord    `json:"create_dt,omitempty"`
	Drop        *DropRecord        `json:"drop,omitempty"`
	Undrop      *DropRecord        `json:"undrop,omitempty"`
	Rename      *RenameRecord      `json:"rename,omitempty"`
	Swap        *RenameRecord      `json:"swap,omitempty"`
	AlterDT     *AlterDTRecord     `json:"alter_dt,omitempty"`
	Grant       *GrantRecord       `json:"grant,omitempty"`
	Commit      *CommitRecord      `json:"commit,omitempty"`
	Frontier    *FrontierRecord    `json:"frontier,omitempty"`
	Clock       *ClockRecord       `json:"clock,omitempty"`
	CreateAlert *CreateAlertRecord `json:"create_alert,omitempty"`
	DropAlert   *DropAlertRecord   `json:"drop_alert,omitempty"`
	AlterAlert  *AlterAlertRecord  `json:"alter_alert,omitempty"`
	AlertState  *AlertStateRecord  `json:"alert_state,omitempty"`
	Compact     *CompactRecord     `json:"compact,omitempty"`
}

// CreateTableRecord logs CREATE [OR REPLACE] TABLE. TableKey is the
// stable durable identity of the storage table (process-local storage IDs
// change across restarts). CloneOfKey, when non-zero, marks a zero-copy
// clone of another table's version chain as of CloneAt.
type CreateTableRecord struct {
	Name       string        `json:"name"`
	Owner      string        `json:"owner"`
	EntryID    int64         `json:"entry_id"`
	TableKey   int64         `json:"table_key"`
	OrReplace  bool          `json:"or_replace,omitempty"`
	Schema     SchemaState   `json:"schema"`
	CreatedAt  hlc.Timestamp `json:"created_at"`
	CloneOfKey int64         `json:"clone_of_key,omitempty"`
	CloneAt    hlc.Timestamp `json:"clone_at,omitzero"`
}

// CreateViewRecord logs CREATE [OR REPLACE] VIEW.
type CreateViewRecord struct {
	Name      string        `json:"name"`
	Owner     string        `json:"owner"`
	EntryID   int64         `json:"entry_id"`
	OrReplace bool          `json:"or_replace,omitempty"`
	Text      string        `json:"text"`
	Deps      []int64       `json:"deps,omitempty"`
	CreatedAt hlc.Timestamp `json:"created_at"`
}

// CreateWhRecord logs CREATE [OR REPLACE] WAREHOUSE.
type CreateWhRecord struct {
	Name        string        `json:"name"`
	Owner       string        `json:"owner"`
	EntryID     int64         `json:"entry_id,omitempty"` // 0 when replacing
	OrReplace   bool          `json:"or_replace,omitempty"`
	Size        int           `json:"size"`
	AutoSuspend int64         `json:"auto_suspend_us"`
	CreatedAt   hlc.Timestamp `json:"created_at"`
}

// CreateDTRecord logs CREATE [OR REPLACE] DYNAMIC TABLE. The defining SQL
// plus the resolved modes are enough to reconstruct the DT without
// re-binding during replay; the initialization refresh that follows is
// covered by subsequent commit and frontier records. For CLONE, the
// source's state is copied as of CloneAt.
type CreateDTRecord struct {
	Name          string        `json:"name"`
	Owner         string        `json:"owner"`
	EntryID       int64         `json:"entry_id"`
	TableKey      int64         `json:"table_key"`
	OrReplace     bool          `json:"or_replace,omitempty"`
	Text          string        `json:"text"`
	LagKind       int           `json:"lag_kind"`
	LagMicros     int64         `json:"lag_us"`
	Warehouse     string        `json:"warehouse"`
	DeclaredMode  int           `json:"declared_mode"`
	EffectiveMode int           `json:"effective_mode"`
	Schema        SchemaState   `json:"schema"`
	Deps          []int64       `json:"deps,omitempty"`
	CreatedAt     hlc.Timestamp `json:"created_at"`
	CloneOf       string        `json:"clone_of,omitempty"`
	CloneAt       hlc.Timestamp `json:"clone_at,omitzero"`
}

// DropRecord logs DROP and UNDROP.
type DropRecord struct {
	Name string        `json:"name"`
	TS   hlc.Timestamp `json:"ts"`
}

// RenameRecord logs RENAME and SWAP.
type RenameRecord struct {
	Name   string        `json:"name"`
	Target string        `json:"target"`
	TS     hlc.Timestamp `json:"ts"`
}

// AlterDTRecord logs the DT state changes of ALTER DYNAMIC TABLE
// (SUSPEND, RESUME, SET_LAG, SET_MODE). REFRESH is covered by commit +
// frontier records.
type AlterDTRecord struct {
	Name      string `json:"name"`
	Action    string `json:"action"`
	LagKind   int    `json:"lag_kind,omitempty"`
	LagMicros int64  `json:"lag_us,omitempty"`
	// Mode carries SET_MODE's new declared refresh mode.
	Mode int `json:"mode,omitempty"`
}

// GrantRecord logs privilege grants and revokes.
type GrantRecord struct {
	ObjectID  int64  `json:"object_id"`
	Privilege int    `json:"privilege"`
	Role      string `json:"role"`
	Revoked   bool   `json:"revoked,omitempty"`
}

// Commit kinds: how a storage version was produced.
const (
	CommitApply     = "apply"
	CommitOverwrite = "overwrite"
	CommitDataEquiv = "data_equivalent"
)

// CommitRecord logs one committed storage version: the change set (Apply),
// the full contents (Overwrite), or nothing (data-equivalent maintenance).
// Replaying commits in per-table order through the same Table methods
// reproduces the version chain exactly.
type CommitRecord struct {
	TableKey int64         `json:"table_key"`
	Kind     string        `json:"commit_kind"`
	Commit   hlc.Timestamp `json:"commit"`
	// Schema is the table schema at commit time; replay installs it so
	// schema evolution (REPLACE TABLE, DT output changes) survives.
	Schema  SchemaState   `json:"schema"`
	Changes []ChangeState `json:"changes,omitempty"`
	Rows    []RowEntry    `json:"rows,omitempty"`
}

// FrontierRecord logs a DT refresh completion: the new frontier, the
// data-timestamp mapping entry, and the dependency generations observed at
// the successful bind. This is what lets the first post-recovery refresh
// proceed incrementally instead of reinitializing.
type FrontierRecord struct {
	EntryID           int64           `json:"entry_id"`
	DataTSMicros      int64           `json:"data_ts_us"`
	Versions          map[int64]int64 `json:"versions"` // table key -> seq
	VersionSeq        int64           `json:"version_seq"`
	Commit            hlc.Timestamp   `json:"commit,omitzero"`
	Deps              map[int64]int64 `json:"deps,omitempty"` // entry ID -> generation
	SchemaFingerprint string          `json:"schema_fp,omitempty"`
	Initialized       bool            `json:"initialized"`
	// AdaptiveMode and AdaptiveReason carry the adaptive chooser's
	// decision in force at this refresh, so replay restores the last
	// decision even past the latest checkpoint. AdaptiveValid
	// distinguishes "decision cleared" (mode 0 with the flag set) from
	// legacy records that carry no adaptive information.
	AdaptiveValid  bool   `json:"adaptive_valid,omitempty"`
	AdaptiveMode   int    `json:"adaptive_mode,omitempty"`
	AdaptiveReason string `json:"adaptive_reason,omitempty"`
}

// ClockRecord logs engine-time advancement (virtual clock and scheduler
// cursor) so recovery resumes the refresh cadence where it left off.
type ClockRecord struct {
	NowMicros    int64 `json:"now_us"`
	CursorMicros int64 `json:"cursor_us"`
}

// CreateAlertRecord logs CREATE [OR REPLACE] ALERT: the full definition,
// enough to reconstruct the watchdog rule without re-binding during
// replay (the condition re-binds at evaluation time).
type CreateAlertRecord struct {
	Name           string `json:"name"`
	Owner          string `json:"owner"`
	OrReplace      bool   `json:"or_replace,omitempty"`
	ScheduleMicros int64  `json:"schedule_us,omitempty"`
	ConditionText  string `json:"condition"`
	ActionKind     string `json:"action_kind"`
	ActionURL      string `json:"action_url,omitempty"`
	ActionSQL      string `json:"action_sql,omitempty"`
}

// DropAlertRecord logs DROP ALERT.
type DropAlertRecord struct {
	Name string `json:"name"`
}

// AlterAlertRecord logs ALTER ALERT SUSPEND/RESUME.
type AlterAlertRecord struct {
	Name   string `json:"name"`
	Action string `json:"action"`
}

// CompactRecord logs one version-chain compaction: versions of the table
// below Horizon were folded into a materialized snapshot at Horizon.
// Horizon is the effective (post-clamp) horizon, so replaying the fold
// against the replayed chain reproduces the compacted state exactly.
type CompactRecord struct {
	TableKey int64 `json:"table_key"`
	Horizon  int64 `json:"horizon"`
}

// AlertStateRecord logs an alert's evaluation-state transition (the
// firing/resolved edge plus streaks and the suppression anchor), so a
// recovered engine resumes the state machine where it left off instead
// of re-firing an already-delivered action.
type AlertStateRecord struct {
	Name            string `json:"name"`
	Status          string `json:"status"`
	TrueStreak      int    `json:"true_streak,omitempty"`
	FalseStreak     int    `json:"false_streak,omitempty"`
	LastFiredMicros int64  `json:"last_fired_us,omitempty"`
	Firings         int64  `json:"firings,omitempty"`
	NextDueMicros   int64  `json:"next_due_us,omitempty"`
}

// ---------------------------------------------------------------------------
// value / row / change-set codec
// ---------------------------------------------------------------------------

// ValueState is the serializable form of a types.Value. Exactly one
// payload field is meaningful per kind; Variant round-trips through its
// JSON form.
type ValueState struct {
	K uint8           `json:"k"`
	I int64           `json:"i,omitempty"`
	F float64         `json:"f,omitempty"`
	S string          `json:"s,omitempty"`
	B bool            `json:"b,omitempty"`
	V json.RawMessage `json:"v,omitempty"`
}

// EncodeValue converts a value to its serializable form.
func EncodeValue(v types.Value) (ValueState, error) {
	st := ValueState{K: uint8(v.Kind())}
	switch v.Kind() {
	case types.KindNull:
	case types.KindInt:
		st.I = v.Int()
	case types.KindFloat:
		st.F = v.Float()
	case types.KindString:
		st.S = v.Str()
	case types.KindBool:
		st.B = v.Bool()
	case types.KindTimestamp:
		st.I = v.Micros()
	case types.KindInterval:
		st.I = int64(v.Interval())
	case types.KindVariant:
		raw, err := json.Marshal(v.Variant())
		if err != nil {
			return st, fmt.Errorf("persist: encode variant: %w", err)
		}
		st.V = raw
	default:
		return st, fmt.Errorf("persist: cannot encode value kind %d", v.Kind())
	}
	return st, nil
}

// DecodeValue restores a value from its serializable form.
func DecodeValue(st ValueState) (types.Value, error) {
	switch types.Kind(st.K) {
	case types.KindNull:
		return types.Null, nil
	case types.KindInt:
		return types.NewInt(st.I), nil
	case types.KindFloat:
		return types.NewFloat(st.F), nil
	case types.KindString:
		return types.NewString(st.S), nil
	case types.KindBool:
		return types.NewBool(st.B), nil
	case types.KindTimestamp:
		return types.NewTimestampMicros(st.I), nil
	case types.KindInterval:
		return types.NewInterval(time.Duration(st.I)), nil
	case types.KindVariant:
		var v any
		if err := json.Unmarshal(st.V, &v); err != nil {
			return types.Null, fmt.Errorf("persist: decode variant: %w", err)
		}
		return types.NewVariant(v), nil
	default:
		return types.Null, fmt.Errorf("persist: unknown value kind %d", st.K)
	}
}

// EncodeRow converts a row.
func EncodeRow(r types.Row) ([]ValueState, error) {
	out := make([]ValueState, len(r))
	for i, v := range r {
		st, err := EncodeValue(v)
		if err != nil {
			return nil, err
		}
		out[i] = st
	}
	return out, nil
}

// DecodeRow restores a row.
func DecodeRow(states []ValueState) (types.Row, error) {
	out := make(types.Row, len(states))
	for i, st := range states {
		v, err := DecodeValue(st)
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}

// RowEntry is one (row ID, row) pair of a table's contents, which are
// serialized as slices in their log order for deterministic output.
type RowEntry struct {
	ID  string       `json:"id"`
	Row []ValueState `json:"row"`
}

// ChangeState is a serialized delta.Change.
type ChangeState struct {
	RowID  string       `json:"row_id"`
	Action uint8        `json:"action"`
	Row    []ValueState `json:"row"`
}

// EncodeChangeSet converts a change set.
func EncodeChangeSet(cs delta.ChangeSet) ([]ChangeState, error) {
	out := make([]ChangeState, len(cs.Changes))
	for i, c := range cs.Changes {
		row, err := EncodeRow(c.Row)
		if err != nil {
			return nil, err
		}
		out[i] = ChangeState{RowID: c.RowID, Action: uint8(c.Action), Row: row}
	}
	return out, nil
}

// DecodeChangeSet restores a change set.
func DecodeChangeSet(states []ChangeState) (delta.ChangeSet, error) {
	var cs delta.ChangeSet
	cs.Changes = make([]delta.Change, len(states))
	for i, st := range states {
		row, err := DecodeRow(st.Row)
		if err != nil {
			return delta.ChangeSet{}, err
		}
		cs.Changes[i] = delta.Change{RowID: st.RowID, Action: delta.Action(st.Action), Row: row}
	}
	return cs, nil
}

// SchemaState is a serialized types.Schema.
type SchemaState struct {
	Columns []ColumnState `json:"columns"`
}

// ColumnState is one serialized column.
type ColumnState struct {
	Name string `json:"name"`
	Kind uint8  `json:"kind"`
}

// EncodeSchema converts a schema.
func EncodeSchema(s types.Schema) SchemaState {
	out := SchemaState{Columns: make([]ColumnState, len(s.Columns))}
	for i, c := range s.Columns {
		out.Columns[i] = ColumnState{Name: c.Name, Kind: uint8(c.Kind)}
	}
	return out
}

// DecodeSchema restores a schema.
func DecodeSchema(st SchemaState) types.Schema {
	out := types.Schema{Columns: make([]types.Column, len(st.Columns))}
	for i, c := range st.Columns {
		out.Columns[i] = types.Column{Name: c.Name, Kind: types.Kind(c.Kind)}
	}
	return out
}
