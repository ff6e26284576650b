// Package txn implements the transaction manager: snapshot-isolated
// transactions with HLC commit timestamps, table locks, and
// first-committer-wins write-write conflict detection (§5.3).
//
// A transaction pins, per table, the version visible at its snapshot
// timestamp. Writes are staged as change sets or full overwrites and are
// installed atomically at commit under per-table locks acquired in a global
// order.
package txn

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"dyntables/internal/clock"
	"dyntables/internal/delta"
	"dyntables/internal/hlc"
	"dyntables/internal/storage"
	"dyntables/internal/types"
)

// ErrConflict is returned by Commit when another transaction committed a
// conflicting write after this transaction's snapshot (first-committer
// wins).
var ErrConflict = errors.New("txn: write-write conflict")

// ErrFinished is returned when operating on a committed or aborted
// transaction.
var ErrFinished = errors.New("txn: transaction already finished")

// Manager coordinates transactions over the storage layer.
type Manager struct {
	clk *hlc.Clock

	mu    sync.Mutex
	locks map[int64]*tableLock // per storage-table ID
}

type tableLock struct {
	mu sync.Mutex
}

// NewManager returns a transaction manager whose commit timestamps come
// from an HLC over the given time source.
func NewManager(source clock.Clock) *Manager {
	return &Manager{
		clk:   hlc.New(source),
		locks: make(map[int64]*tableLock),
	}
}

// Clock exposes the manager's HLC (used by the scheduler to stamp refresh
// timestamps consistently with commit timestamps).
func (m *Manager) Clock() *hlc.Clock { return m.clk }

// Now issues a fresh HLC timestamp.
func (m *Manager) Now() hlc.Timestamp { return m.clk.Now() }

func (m *Manager) lockFor(id int64) *tableLock {
	m.mu.Lock()
	defer m.mu.Unlock()
	l, ok := m.locks[id]
	if !ok {
		l = &tableLock{}
		m.locks[id] = l
	}
	return l
}

// Txn is a single transaction. A Txn is not safe for concurrent use.
type Txn struct {
	mgr      *Manager
	snapshot hlc.Timestamp
	finished bool

	// readSeqs pins the version sequence visible per table.
	readSeqs map[*storage.Table]int64

	// staged writes, in staging order.
	writes []stagedWrite
}

type stagedWrite struct {
	table     *storage.Table
	changes   delta.ChangeSet
	overwrite map[string]types.Row // non-nil for INSERT OVERWRITE
	isOver    bool
}

// Begin starts a transaction with a snapshot at the current HLC time.
func (m *Manager) Begin() *Txn {
	return m.BeginAt(m.clk.Now())
}

// BeginAt starts a transaction whose snapshot is pinned at ts; DT refreshes
// use this to read sources as of their refresh timestamp.
func (m *Manager) BeginAt(ts hlc.Timestamp) *Txn {
	return &Txn{
		mgr:      m,
		snapshot: ts,
		readSeqs: make(map[*storage.Table]int64),
	}
}

// Snapshot returns the transaction's snapshot timestamp.
func (t *Txn) Snapshot() hlc.Timestamp { return t.snapshot }

// PinVersion resolves and pins the table version visible to this
// transaction, returning its sequence number.
func (t *Txn) PinVersion(table *storage.Table) (int64, error) {
	if seq, ok := t.readSeqs[table]; ok {
		return seq, nil
	}
	v, err := table.VersionAsOf(t.snapshot)
	if err != nil {
		return 0, err
	}
	t.readSeqs[table] = v.Seq
	return v.Seq, nil
}

// ReadBatch returns the table's contents visible to this transaction as
// the version's shared columnar batch. The batch must not be mutated.
func (t *Txn) ReadBatch(table *storage.Table) (*types.Batch, error) {
	if t.finished {
		return nil, ErrFinished
	}
	seq, err := t.PinVersion(table)
	if err != nil {
		return nil, err
	}
	return table.Batch(seq)
}

// Write stages a change set against the table.
func (t *Txn) Write(table *storage.Table, cs delta.ChangeSet) error {
	if t.finished {
		return ErrFinished
	}
	t.writes = append(t.writes, stagedWrite{table: table, changes: cs})
	return nil
}

// Overwrite stages a full replacement of the table's contents.
func (t *Txn) Overwrite(table *storage.Table, rows map[string]types.Row) error {
	if t.finished {
		return ErrFinished
	}
	t.writes = append(t.writes, stagedWrite{table: table, overwrite: rows, isOver: true})
	return nil
}

// Abort discards the transaction.
func (t *Txn) Abort() {
	t.finished = true
	t.writes = nil
}

// Commit atomically installs the staged writes. It acquires per-table
// locks in table-ID order, performs first-committer-wins conflict checks
// against versions committed after the snapshot, stamps a single HLC commit
// timestamp, and applies every staged write at that timestamp. On conflict
// it returns ErrConflict (wrapped with detail) and the transaction is
// aborted.
func (t *Txn) Commit() (hlc.Timestamp, error) {
	if t.finished {
		return hlc.Zero, ErrFinished
	}
	t.finished = true
	if len(t.writes) == 0 {
		return t.mgr.clk.Now(), nil
	}

	// Deduplicate and order target tables for deadlock-free locking.
	tables := make([]*storage.Table, 0, len(t.writes))
	seen := make(map[int64]bool)
	for _, w := range t.writes {
		if !seen[w.table.ID()] {
			seen[w.table.ID()] = true
			tables = append(tables, w.table)
		}
	}
	sort.Slice(tables, func(i, j int) bool { return tables[i].ID() < tables[j].ID() })
	locks := make([]*tableLock, len(tables))
	for i, tb := range tables {
		locks[i] = t.mgr.lockFor(tb.ID())
		locks[i].mu.Lock()
	}
	defer func() {
		for i := len(locks) - 1; i >= 0; i-- {
			locks[i].mu.Unlock()
		}
	}()

	if err := t.checkConflicts(); err != nil {
		return hlc.Zero, err
	}

	commit := t.mgr.clk.Now()
	for _, w := range t.writes {
		// Guarantee the commit timestamp advances past the table's last
		// version even if it was produced by another HLC domain.
		if last := w.table.LatestVersion().Commit; !last.Less(commit) {
			commit = t.mgr.clk.Update(last)
		}
	}
	for _, w := range t.writes {
		var err error
		if w.isOver {
			_, err = w.table.Overwrite(w.overwrite, commit)
		} else {
			_, err = w.table.Apply(w.changes, commit)
		}
		if err != nil {
			// Partial application cannot be rolled back; this indicates a
			// bug (validations failed post-conflict-check). Surface loudly.
			return hlc.Zero, fmt.Errorf("txn: apply failed mid-commit: %w", err)
		}
	}
	return commit, nil
}

// checkConflicts implements first-committer-wins at row granularity: the
// commit fails if any version committed after the snapshot touches a row ID
// this transaction writes, or if the transaction overwrites a table that
// changed at all since the snapshot.
func (t *Txn) checkConflicts() error {
	for _, w := range t.writes {
		base, err := w.table.VersionAsOf(t.snapshot)
		if err != nil {
			// Table created after our snapshot; treat its first version as base.
			v, verr := w.table.VersionBySeq(1)
			if verr != nil {
				return verr
			}
			base = v
		}
		latest := w.table.LatestVersion()
		if latest.Seq == base.Seq {
			continue
		}
		if w.isOver {
			if w.table.ChangedSince(base.Seq, latest.Seq) {
				return fmt.Errorf("%w: table %d changed since snapshot (overwrite)", ErrConflict, w.table.ID())
			}
			continue
		}
		interval, err := w.table.Changes(base.Seq, latest.Seq)
		if err != nil {
			var over *storage.ErrOverwritten
			if errors.As(err, &over) {
				return fmt.Errorf("%w: table %d overwritten since snapshot", ErrConflict, w.table.ID())
			}
			return err
		}
		touched := make(map[string]bool, interval.Len())
		for _, c := range interval.Changes {
			touched[c.RowID] = true
		}
		for _, c := range w.changes.Changes {
			if touched[c.RowID] {
				return fmt.Errorf("%w: row %s of table %d modified since snapshot", ErrConflict, c.RowID, w.table.ID())
			}
		}
	}
	return nil
}
