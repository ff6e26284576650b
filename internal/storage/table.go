// Package storage implements the versioned table store underneath the
// engine: table versions indexed by HLC commit timestamp, change-set logs
// for time travel (§5.3), change intervals for incremental refreshes
// (§5.5), zero-copy cloning (§3.4) and data-equivalent maintenance
// versions that incremental readers skip (§5.5.2).
//
// A table's contents live in one place: an append-only row log that every
// version reads. Each log entry carries the sequence of the version that
// inserted it and of the one that deleted it, so a version is a shared
// base plus a change log rather than a private copy: a commit appends its
// inserts and stamps its deletes in place, which costs O(|Δ|), and any
// retained version reads in one sequence-filtered pass over the log. Scan
// order is log order: a version scans in the same order before and after
// compaction, and after recovery from a checkpoint. An overwrite starts a
// new log, and compaction folds away entries no retained version can see.
// Versions hold no copy of the contents: what a checkpoint or the WAL
// writes for a version that starts a snapshot is read from the log.
package storage

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"dyntables/internal/delta"
	"dyntables/internal/hlc"
	"dyntables/internal/types"
)

// memoSize bounds the per-table memo of materialized versions. Concurrent
// refreshes over one source version (sibling DTs, a delta's interval start
// and end) share one materialization and the column vectors an expression
// builds on first use.
const memoSize = 4

// Version is one committed version of a table. Versions are immutable once
// committed.
type Version struct {
	// Seq is the 1-based position in the table's version chain.
	Seq int64
	// Commit is the HLC timestamp of the committing transaction; versions
	// are totally ordered by it.
	Commit hlc.Timestamp
	// Changes transforms the previous version into this one. Empty for
	// the creation version, overwrites and data-equivalent versions.
	Changes delta.ChangeSet
	// Overwrite marks an INSERT OVERWRITE (or a compaction fold): the
	// version's contents replace everything before it, and it starts a new
	// segment of the row log.
	Overwrite bool
	// DataEquivalent marks background maintenance (reclustering,
	// defragmentation) that rewrote storage without changing logical
	// contents; incremental readers skip these versions (§5.5.2).
	DataEquivalent bool
	// RowCount is the number of live rows at this version.
	RowCount int
}

// startsSnapshot reports whether the version at index i of a retained
// chain starts a snapshot: its contents do not derive from the version
// before. That is the first retained version and every overwrite (a
// compaction fold is one); each reads a segment of the log that starts at
// it.
func startsSnapshot(i int, v *Version) bool { return i == 0 || v.Overwrite }

var tableIDs atomic.Int64

// CommitSink observes committed versions, in commit order per table. The
// durability layer registers one to write-ahead-log every commit. The
// schema at commit time rides along so replay can reproduce schema
// evolution (REPLACE TABLE, DT output changes), and so do an overwrite's
// new contents in log order (nil for every other version). Sinks are
// invoked with the table lock held and must not call back into the table.
type CommitSink interface {
	TableCommitted(t *Table, v *Version, schema types.Schema, rows *types.Batch)
}

// notDeleted is the delete sequence of an entry that is live at the tip.
const notDeleted = math.MaxInt64

// entry is one row of the log, visible at versions [ins, del). Only del
// changes after the entry is appended: writers stamp it under the table
// lock, and readers, which scan without the lock, load it.
type entry struct {
	id  string
	row types.Row
	ins int64
	del atomic.Int64
}

func (e *entry) visibleAt(seq int64) bool {
	return e.ins <= seq && seq < e.del.Load()
}

// segment is the row log of the versions from seq `from` up to the next
// segment's start. Entries are appended in version order, so ins never
// decreases along a segment. An overwrite starts a new segment; so does a
// clone's first write, because the log it was cloned from belongs to
// another table.
type segment struct {
	from    int64
	entries []entry
	// index holds the lookup runs over entries by column (index.go),
	// guarded by the table lock. A new segment, a compaction fold and a
	// clone's copy of a header all start without one.
	index map[int]*colIndex
}

// add appends an entry and returns its position.
func (s *segment) add(id string, row types.Row, ins, del int64) int {
	s.entries = append(s.entries, entry{id: id, row: row, ins: ins})
	s.entries[len(s.entries)-1].del.Store(del)
	return len(s.entries) - 1
}

// Table is a versioned collection of rows keyed by row ID. All methods are
// safe for concurrent use.
type Table struct {
	mu sync.RWMutex

	id     int64
	schema types.Schema

	versions []*Version // ordered by Seq (and Commit)

	// base counts versions folded away by compaction: versions[0] carries
	// Seq base+1, and sequences 1..base are no longer readable. Zero on
	// an uncompacted table.
	base int64

	// pins holds reference counts of version sequences that compaction
	// must keep readable (open cursors, in-flight refresh intervals).
	pins map[int64]int

	// rowSeq allocates row IDs for plain inserts.
	rowSeq atomic.Int64

	// sink, when set, observes every committed version (WAL emission).
	sink CommitSink

	// segs is the row log, oldest segment first; the last one holds the
	// latest version. Segment structs are never shared between tables: a
	// clone copies the headers, and never appends to a borrowed segment.
	segs []*segment
	// live maps each row ID live at the latest version to its position in
	// the last segment. It is mutated in place under mu and never handed
	// to readers. Nil while the last segment is borrowed from the table a
	// clone was made from; the clone's first write takes its own copy.
	live map[string]int

	// memos holds recently materialized versions, least recently used
	// first. Batches are immutable and shared across concurrent readers,
	// so N sibling DTs scanning the same source version share one
	// materialization.
	memos []*memo
}

// NewTable creates an empty table with the given schema. The table begins
// with a single empty version committed at the supplied timestamp so that
// reads as of any later time resolve to a defined version.
func NewTable(schema types.Schema, createdAt hlc.Timestamp) *Table {
	t := &Table{
		id:     tableIDs.Add(1),
		schema: schema,
		segs:   []*segment{{from: 1}},
		live:   map[string]int{},
	}
	t.versions = []*Version{{Seq: 1, Commit: createdAt}}
	return t
}

// ID returns the table's unique storage identifier.
func (t *Table) ID() int64 { return t.id }

// SetCommitSink registers the commit observer (at most one; nil clears).
func (t *Table) SetCommitSink(s CommitSink) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.sink = s
}

// TableState is the serializable form of a table: the complete version
// chain, enough to reconstruct a table whose Rows(seq) match the original
// at every version.
type TableState struct {
	Schema   types.Schema
	RowSeq   int64
	Versions []*Version
	// Snapshots runs parallel to Versions: the contents of each version
	// that starts a snapshot (the first and every overwrite) in log order,
	// nil for the rest, whose contents derive from the version before.
	Snapshots []*types.Batch
}

// State exports the table's full state for checkpointing, reading each
// snapshot's contents from the log. Version structs are shared, not copied
// — they are immutable once committed.
func (t *Table) State() TableState {
	t.mu.RLock()
	defer t.mu.RUnlock()
	st := TableState{
		Schema:    t.schema,
		RowSeq:    t.rowSeq.Load(),
		Versions:  append([]*Version(nil), t.versions...),
		Snapshots: make([]*types.Batch, len(t.versions)),
	}
	for i, v := range st.Versions {
		if startsSnapshot(i, v) {
			ids, rows := scan(t.segmentFor(v.Seq).entries, v.Seq, v.RowCount)
			st.Snapshots[i] = types.NewBatch(t.schema, ids, rows)
		}
	}
	return st
}

// RestoreTable reconstructs a table from checkpointed state under a fresh
// process-local ID, rebuilding the row log by replaying the chain from its
// first snapshot. Each snapshot's rows enter the log in the order given.
// Snapshots on plain change versions (the periodic snapshots of older
// checkpoints) are ignored: the log reads every version without them.
func RestoreTable(st TableState) (*Table, error) {
	if len(st.Versions) == 0 {
		return nil, fmt.Errorf("storage: cannot restore table with no versions")
	}
	t := &Table{
		id:       tableIDs.Add(1),
		schema:   st.Schema,
		versions: make([]*Version, 0, len(st.Versions)),
		base:     st.Versions[0].Seq - 1,
	}
	t.rowSeq.Store(st.RowSeq)
	for i, v := range st.Versions {
		switch {
		case startsSnapshot(i, v):
			snap := st.Snapshots[i]
			if snap == nil {
				return nil, fmt.Errorf("storage: restored version %d starts a snapshot but has none", v.Seq)
			}
			t.startSegment(v.Seq, snap.IDs(), snap.Rows())
			if len(t.live) != snap.Len() {
				return nil, fmt.Errorf("storage: restored version %d's snapshot repeats a row ID", v.Seq)
			}
		case v.DataEquivalent:
		default:
			if err := t.checkDeletes(v.Changes); err != nil {
				return nil, fmt.Errorf("storage: restored version %d: %w", v.Seq, err)
			}
			t.appendChanges(v.Changes, v.Seq)
		}
		t.versions = append(t.versions, v)
	}
	return t, nil
}

// Schema returns the table schema.
func (t *Table) Schema() types.Schema {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.schema
}

// SetSchema replaces the schema; used by REPLACE TABLE DDL. Contents are
// not converted — callers overwrite contents in the same operation.
func (t *Table) SetSchema(s types.Schema) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.schema = s
}

// NextRowID allocates a fresh row ID with the plaintext prefix "t:"
// (§5.5.2 notes DT row IDs use plaintext prefixes; base tables share the
// scheme). The ID depends only on the table's own sequence, so one
// script writes the same row IDs in every engine. Older data directories
// hold IDs of the form t<n>:<seq>, which "t:<seq>" can never equal.
func (t *Table) NextRowID() string {
	return "t:" + strconv.FormatInt(t.rowSeq.Add(1), 10)
}

// AdvanceRowSeq moves the row sequence past id when id has NextRowID's
// form. Recovery calls it for every row a replayed commit inserts: the
// checkpoint's sequence predates those rows, and NextRowID must not mint
// one of their IDs again. Replay runs on one goroutine.
func (t *Table) AdvanceRowSeq(id string) {
	rest, ok := strings.CutPrefix(id, "t:")
	if !ok {
		return
	}
	if n, err := strconv.ParseInt(rest, 10, 64); err == nil && n > t.rowSeq.Load() {
		t.rowSeq.Store(n)
	}
}

// LatestVersion returns the most recent version.
func (t *Table) LatestVersion() *Version {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.versions[len(t.versions)-1]
}

// VersionBySeq returns the version with the given sequence number.
func (t *Table) VersionBySeq(seq int64) (*Version, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.versionBySeqLocked(seq)
}

func (t *Table) versionBySeqLocked(seq int64) (*Version, error) {
	if seq >= 1 && seq <= t.base {
		return nil, &ErrCompacted{TableID: t.id, Seq: seq, FirstLive: t.base + 1}
	}
	if seq < 1 || seq > t.base+int64(len(t.versions)) {
		return nil, fmt.Errorf("storage: table %d has no version %d", t.id, seq)
	}
	return t.versions[seq-1-t.base], nil
}

// VersionAsOf returns the latest version whose commit timestamp is <= ts,
// implementing time travel. It errors when ts precedes the table's first
// version.
func (t *Table) VersionAsOf(ts hlc.Timestamp) (*Version, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.versionAsOfLocked(ts)
}

func (t *Table) versionAsOfLocked(ts hlc.Timestamp) (*Version, error) {
	idx := sort.Search(len(t.versions), func(i int) bool {
		return ts.Less(t.versions[i].Commit)
	})
	if idx == 0 {
		return nil, fmt.Errorf("storage: table %d has no version at or before %s", t.id, ts)
	}
	return t.versions[idx-1], nil
}

// segmentFor returns the log segment that holds version seq (a retained
// sequence). Callers hold t.mu.
func (t *Table) segmentFor(seq int64) *segment {
	for i := len(t.segs) - 1; i > 0; i-- {
		if t.segs[i].from <= seq {
			return t.segs[i]
		}
	}
	return t.segs[0]
}

// Rows materializes the full contents at the given version sequence as a
// fresh map. The returned map and its rows must not be mutated.
func (t *Table) Rows(seq int64) (map[string]types.Row, error) {
	b, err := t.Batch(seq)
	if err != nil {
		return nil, err
	}
	ids, rows := b.IDs(), b.Rows()
	out := make(map[string]types.Row, len(ids))
	for i, id := range ids {
		out[id] = rows[i]
	}
	return out, nil
}

// Batch materializes the contents at the given version sequence as a
// shared columnar batch in log order, read in one pass over the log. The
// pass runs without the table lock, so commits proceed beside it. The
// first reader of a version makes the pass and memoizes it; readers that
// arrive meanwhile wait for that pass instead of making their own, so a
// version costs one pass however its readers interleave. The returned
// batch and everything reachable from it must not be mutated.
func (t *Table) Batch(seq int64) (*types.Batch, error) {
	t.mu.Lock()
	v, err := t.versionBySeqLocked(seq)
	if err != nil {
		t.mu.Unlock()
		return nil, err
	}
	if m := t.memoFor(seq); m != nil {
		t.mu.Unlock()
		<-m.ready
		return m.b, nil
	}
	m := &memo{seq: seq, ready: make(chan struct{})}
	t.remember(m)
	schema, entries := t.schema, t.segmentFor(seq).entries
	t.mu.Unlock()

	ids, rows := scan(entries, seq, v.RowCount)
	m.b = types.NewBatch(schema, ids, rows)
	close(m.ready)
	return m.b, nil
}

// memo is a materialized version. b is set before ready is closed.
type memo struct {
	seq   int64
	ready chan struct{}
	b     *types.Batch
}

// memoFor returns the memoized version seq, marking it most recently used,
// or nil. Callers hold t.mu.
func (t *Table) memoFor(seq int64) *memo {
	for i, m := range t.memos {
		if m.seq == seq {
			copy(t.memos[i:], t.memos[i+1:])
			t.memos[len(t.memos)-1] = m
			return m
		}
	}
	return nil
}

// remember memoizes a version, evicting the least recently used beyond
// memoSize. Callers hold t.mu.
func (t *Table) remember(m *memo) {
	t.memos = append(t.memos, m)
	if len(t.memos) > memoSize {
		t.memos = append(t.memos[:0], t.memos[1:]...)
	}
}

// scan collects the IDs and rows of the entries visible at version seq, in
// log order; n is the version's row count. It reads only immutable entry
// fields and atomic delete stamps, so it runs without the table lock.
func scan(entries []entry, seq int64, n int) ([]string, []types.Row) {
	ids := make([]string, 0, n)
	rows := make([]types.Row, 0, n)
	for i := range entries {
		if e := &entries[i]; e.visibleAt(seq) {
			ids = append(ids, e.id)
			rows = append(rows, e.row)
		}
	}
	return ids, rows
}

// RowCount returns the number of live rows at the latest version.
func (t *Table) RowCount() int {
	return t.LatestVersion().RowCount
}

// ErrMissingRow reports a change set that deletes a row the latest
// version does not hold — the §6.1 invariant every commit validates.
type ErrMissingRow struct {
	RowID string
}

// Error implements error.
func (e *ErrMissingRow) Error() string {
	return fmt.Sprintf("storage: change set deletes nonexistent row %s", e.RowID)
}

// Apply commits a change set as a new version with the given commit
// timestamp and returns the new version. It validates the §6.1 invariant
// that no change set deletes a row that does not exist (*ErrMissingRow).
// The cost is O(|Δ|): the change set is appended to the row log and its
// deletes are stamped in place.
func (t *Table) Apply(cs delta.ChangeSet, commit hlc.Timestamp) (*Version, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	last := t.versions[len(t.versions)-1]
	if !last.Commit.Less(commit) {
		return nil, fmt.Errorf("storage: commit %s does not advance past %s", commit, last.Commit)
	}
	t.ownLog()
	if err := t.checkDeletes(cs); err != nil {
		return nil, err
	}
	v := &Version{Seq: last.Seq + 1, Commit: commit, Changes: cs}
	t.appendChanges(cs, v.Seq)
	v.RowCount = len(t.live)
	t.commitLocked(v, nil)
	return v, nil
}

// checkDeletes rejects a change set that deletes a row not live at the
// latest version. Callers hold t.mu and own the last segment.
func (t *Table) checkDeletes(cs delta.ChangeSet) error {
	for _, c := range cs.Changes {
		if c.Action == delta.Delete {
			if _, ok := t.live[c.RowID]; !ok {
				return &ErrMissingRow{RowID: c.RowID}
			}
		}
	}
	return nil
}

// appendChanges records version seq's change set in the last segment:
// deletes first, then inserts, as a change set applies. An insert of a row
// ID that is still live replaces that row. Callers hold t.mu and own the
// last segment.
func (t *Table) appendChanges(cs delta.ChangeSet, seq int64) {
	seg := t.segs[len(t.segs)-1]
	for _, c := range cs.Changes {
		if c.Action == delta.Delete {
			t.retire(seg, c.RowID, seq)
		}
	}
	for _, c := range cs.Changes {
		if c.Action == delta.Insert {
			t.retire(seg, c.RowID, seq)
			t.live[c.RowID] = seg.add(c.RowID, c.Row, seq, notDeleted)
		}
	}
}

// retire stamps the live entry for id, if any, as deleted at seq.
func (t *Table) retire(seg *segment, id string, seq int64) {
	if pos, ok := t.live[id]; ok {
		seg.entries[pos].del.Store(seq)
		delete(t.live, id)
	}
}

// ownLog gives a clone its own last segment before its first write: the
// rows live at the latest version, copied out of the borrowed log. It is a
// no-op on a table that already owns its log. Callers hold t.mu.
func (t *Table) ownLog() {
	if t.live != nil {
		return
	}
	seq := t.base + int64(len(t.versions))
	src := t.segmentFor(seq).entries
	own := &segment{from: seq, entries: make([]entry, 0, t.versions[len(t.versions)-1].RowCount)}
	t.live = make(map[string]int, cap(own.entries))
	for i := range src {
		if e := &src[i]; e.visibleAt(seq) {
			t.live[e.id] = own.add(e.id, e.row, e.ins, notDeleted)
		}
	}
	t.replaceSegmentsFrom(seq, own)
}

// startSegment begins a new log at version seq holding the rows with the
// given IDs, in that order. Callers hold t.mu.
func (t *Table) startSegment(seq int64, ids []string, rows []types.Row) {
	seg := &segment{from: seq, entries: make([]entry, 0, len(ids))}
	t.live = make(map[string]int, len(ids))
	for i, id := range ids {
		t.live[id] = seg.add(id, rows[i], seq, notDeleted)
	}
	t.replaceSegmentsFrom(seq, seg)
}

// replaceSegmentsFrom installs seg as the last segment, replacing any
// segment that starts at or after its first version (only ever one that
// starts exactly there, and only on an empty or borrowed log).
func (t *Table) replaceSegmentsFrom(seq int64, seg *segment) {
	n := len(t.segs)
	for n > 0 && t.segs[n-1].from >= seq {
		n--
	}
	t.segs = append(t.segs[:n], seg)
}

// commitLocked appends a committed version and notifies the sink; rows
// are an overwrite's new contents. Callers hold t.mu.
func (t *Table) commitLocked(v *Version, rows *types.Batch) {
	t.versions = append(t.versions, v)
	if t.sink != nil {
		t.sink.TableCommitted(t, v, t.schema, rows)
	}
}

// Overwrite commits a full replacement of the table's contents (INSERT
// OVERWRITE, used by FULL refreshes and reinitializations, §5.4). It
// starts a new row log in row ID order, so the scan order is a function of
// the contents; earlier versions keep reading the old one. The table keeps
// the rows but not the map.
func (t *Table) Overwrite(rows map[string]types.Row, commit hlc.Timestamp) (*Version, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	last := t.versions[len(t.versions)-1]
	if !last.Commit.Less(commit) {
		return nil, fmt.Errorf("storage: commit %s does not advance past %s", commit, last.Commit)
	}
	ids := make([]string, 0, len(rows))
	for id := range rows {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	ordered := make([]types.Row, len(ids))
	for i, id := range ids {
		ordered[i] = rows[id]
	}
	v := &Version{
		Seq:       last.Seq + 1,
		Commit:    commit,
		Overwrite: true,
		RowCount:  len(ids),
	}
	t.startSegment(v.Seq, ids, ordered)
	t.commitLocked(v, types.NewBatch(t.schema, ids, ordered))
	return v, nil
}

// AppendDataEquivalent commits a version that does not change logical
// contents (background reclustering). Incremental readers skip it.
func (t *Table) AppendDataEquivalent(commit hlc.Timestamp) (*Version, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	last := t.versions[len(t.versions)-1]
	if !last.Commit.Less(commit) {
		return nil, fmt.Errorf("storage: commit %s does not advance past %s", commit, last.Commit)
	}
	// The new version reads the last segment, so a clone must own it.
	t.ownLog()
	v := &Version{
		Seq:            last.Seq + 1,
		Commit:         commit,
		DataEquivalent: true,
		RowCount:       last.RowCount,
	}
	t.commitLocked(v, nil)
	return v, nil
}

// ErrOverwritten signals that a change interval crosses an INSERT OVERWRITE
// or table replacement, so a purely incremental read is unsound and the
// caller must REINITIALIZE (§3.3.2).
type ErrOverwritten struct {
	TableID int64
	Seq     int64
}

// Error implements error.
func (e *ErrOverwritten) Error() string {
	return fmt.Sprintf("storage: table %d version %d overwrote contents; change interval is invalid", e.TableID, e.Seq)
}

// Changes returns the consolidated change set transforming version fromSeq
// into version toSeq. Data-equivalent versions contribute nothing. When the
// interval crosses an overwrite, Changes returns *ErrOverwritten and the
// caller falls back to reinitialization.
func (t *Table) Changes(fromSeq, toSeq int64) (delta.ChangeSet, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if fromSeq > toSeq {
		return delta.ChangeSet{}, fmt.Errorf("storage: invalid change interval [%d,%d]", fromSeq, toSeq)
	}
	if fromSeq >= 1 && fromSeq <= t.base {
		// The interval's start was folded away; the per-version deltas no
		// longer exist. Report it like an overwrite so incremental readers
		// fall back to reinitialization instead of failing permanently.
		return delta.ChangeSet{}, &ErrOverwritten{TableID: t.id, Seq: t.base + 1}
	}
	if fromSeq < 1 || toSeq > t.base+int64(len(t.versions)) {
		return delta.ChangeSet{}, fmt.Errorf("storage: change interval [%d,%d] out of range", fromSeq, toSeq)
	}
	var out delta.ChangeSet
	for i := fromSeq; i < toSeq; i++ {
		v := t.versions[i-t.base]
		if v.Overwrite {
			return delta.ChangeSet{}, &ErrOverwritten{TableID: t.id, Seq: v.Seq}
		}
		if v.DataEquivalent {
			continue
		}
		out.Append(v.Changes)
	}
	if fromSeq != toSeq {
		out = out.Consolidate()
	}
	return out, nil
}

// ChangedSince reports whether any version in (fromSeq, toSeq] changed
// logical contents; data-equivalent versions do not count. Used to decide
// NO_DATA refreshes (§3.3.2) without materializing change sets.
func (t *Table) ChangedSince(fromSeq, toSeq int64) bool {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if toSeq > t.base+int64(len(t.versions)) {
		toSeq = t.base + int64(len(t.versions))
	}
	if fromSeq < t.base {
		// Versions at or below the compaction horizon were folded away;
		// report them as changed (the fold is represented as an overwrite).
		fromSeq = t.base
	}
	for i := fromSeq; i < toSeq; i++ {
		v := t.versions[i-t.base]
		if v.DataEquivalent {
			continue
		}
		if v.Overwrite || v.Changes.Len() > 0 {
			return true
		}
	}
	return false
}

// ChangeVolume counts the change rows recorded across the versions in
// (fromSeq, toSeq] without materializing change sets — the adaptive
// refresh-mode chooser's incremental-cost signal. Data-equivalent
// versions contribute nothing; an overwrite contributes its full row
// count, since an incremental read across it is unsound and forces a
// reinitialization anyway.
func (t *Table) ChangeVolume(fromSeq, toSeq int64) int64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if fromSeq < t.base {
		fromSeq = t.base
	}
	if toSeq > t.base+int64(len(t.versions)) {
		toSeq = t.base + int64(len(t.versions))
	}
	var total int64
	for i := fromSeq; i < toSeq; i++ {
		v := t.versions[i-t.base]
		switch {
		case v.DataEquivalent:
		case v.Overwrite:
			total += int64(v.RowCount)
		default:
			total += int64(v.Changes.Len())
		}
	}
	return total
}

// Footprint is a table's in-memory accounting: how much the version
// chain holds beyond the live tip. These are the signals a compaction
// pass gates on — chain rows and the rows of old snapshot versions are
// what trimming old versions would reclaim.
type Footprint struct {
	// Versions is the number of live versions in the chain.
	Versions int
	// LiveRows is the row count at the latest version.
	LiveRows int64
	// ChainRows counts the change rows pending across all versions'
	// change sets (the per-version deltas incremental readers consume).
	ChainRows int64
	// SnapshotRows counts the rows of the versions that start a snapshot
	// (the first retained version, overwrites and a compaction fold), read
	// from the row log: the rows a checkpoint writes in full.
	SnapshotRows int64
	// Bytes estimates the total in-memory size of chain change rows and
	// snapshot rows (types.Row.ApproxBytes; an accounting estimate). A
	// row both kinds count shares one copy in the log.
	Bytes int64
	// IndexBytes is the memory of the lookup runs the table's readers have
	// built (index.go): 12 B per indexed log entry. Bytes excludes it.
	IndexBytes int64
	// CompactedThrough is the highest version sequence folded away by
	// compaction (0 when the chain is uncompacted). Versions reports live
	// versions only, so under steady churn with compaction enabled it —
	// and ChainRows/Bytes — plateau instead of growing with history.
	CompactedThrough int64
}

// FootprintStats walks the version chain and reports the table's current
// footprint. The walk is O(total retained rows) and takes the read lock,
// so it is meant for scrape-frequency monitoring, not hot paths.
func (t *Table) FootprintStats() Footprint {
	t.mu.RLock()
	defer t.mu.RUnlock()
	fp := Footprint{Versions: len(t.versions), CompactedThrough: t.base}
	if n := len(t.versions); n > 0 {
		fp.LiveRows = int64(t.versions[n-1].RowCount)
	}
	for i, v := range t.versions {
		for _, c := range v.Changes.Changes {
			fp.ChainRows++
			fp.Bytes += c.Row.ApproxBytes() + int64(len(c.RowID))
		}
		if !startsSnapshot(i, v) {
			continue
		}
		entries := t.segmentFor(v.Seq).entries
		for j := range entries {
			if e := &entries[j]; e.visibleAt(v.Seq) {
				fp.SnapshotRows++
				fp.Bytes += e.row.ApproxBytes() + int64(len(e.id))
			}
		}
	}
	for _, s := range t.segs {
		for _, ci := range s.index {
			if r := ci.run.Load(); r != nil {
				fp.IndexBytes += r.bytes()
			}
		}
	}
	return fp
}

// Clone returns a zero-copy clone: a new table whose version chain shares
// every committed version with the original, and whose reads share the
// original's row log. Subsequent writes to either table diverge (§3.4):
// the clone's first write copies the rows live at its latest version into
// a log of its own. The clone's first own version is stamped at the clone
// time.
func (t *Table) Clone(at hlc.Timestamp) (*Table, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	src, err := t.versionAsOfLocked(at)
	if err != nil {
		return nil, err
	}
	clone := &Table{
		id:     tableIDs.Add(1),
		schema: t.schema,
		base:   t.base,
	}
	// Share the version chain prefix (metadata-only copy).
	clone.versions = make([]*Version, src.Seq-t.base)
	copy(clone.versions, t.versions[:src.Seq-t.base])
	// Borrow the segments the prefix reads. Each copy is a header of the
	// clone's own, so this table's later appends stay out of its view.
	for _, s := range t.segs {
		if s.from > src.Seq {
			break
		}
		clone.segs = append(clone.segs, &segment{from: s.from, entries: s.entries})
	}
	clone.rowSeq.Store(t.rowSeq.Load())
	return clone, nil
}

// VersionCount returns the sequence number of the latest version: the
// total number of versions ever committed, including any folded away by
// compaction (so version sequences derived from it stay stable).
func (t *Table) VersionCount() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return int(t.base) + len(t.versions)
}

// LiveVersions returns the number of versions still retained in the
// chain (the footprint compaction trims).
func (t *Table) LiveVersions() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.versions)
}

// CompactedThrough returns the highest folded sequence number: versions
// 1..CompactedThrough are no longer readable. Zero on an uncompacted
// table.
func (t *Table) CompactedThrough() int64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.base
}

// ErrCompacted signals a read of a version sequence that compaction has
// folded away.
type ErrCompacted struct {
	// TableID is the storage table; Seq the requested sequence; FirstLive
	// the oldest sequence still readable.
	TableID, Seq, FirstLive int64
}

// Error implements error.
func (e *ErrCompacted) Error() string {
	return fmt.Sprintf("storage: table %d version %d was compacted away (oldest readable version is %d)",
		e.TableID, e.Seq, e.FirstLive)
}

// Pin marks a version sequence as in use (an open cursor, an in-flight
// refresh interval): compaction clamps its horizon to the oldest pinned
// sequence, so a pinned version stays readable and byte-stable. Pins are
// reference-counted; each Pin must be paired with an Unpin.
func (t *Table) Pin(seq int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.pins == nil {
		t.pins = make(map[int64]int)
	}
	t.pins[seq]++
}

// Unpin releases a Pin.
func (t *Table) Unpin(seq int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := t.pins[seq] - 1
	if n <= 0 {
		delete(t.pins, seq)
	} else {
		t.pins[seq] = n
	}
}

// PinnedFloor returns the oldest pinned sequence, or 0 when nothing is
// pinned.
func (t *Table) PinnedFloor() int64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.pinnedFloorLocked()
}

func (t *Table) pinnedFloorLocked() int64 {
	var min int64
	for seq := range t.pins {
		if min == 0 || seq < min {
			min = seq
		}
	}
	return min
}

// Compact folds the version chain below horizon: versions with Seq <
// horizon become unreadable (Rows returns *ErrCompacted; change intervals
// starting below the horizon report *ErrOverwritten so incremental readers
// reinitialize), the version at horizon starts a snapshot, and the row
// log drops every entry deleted at or before horizon. The horizon is
// clamped to the oldest pinned sequence and to the latest version, so a
// pinned snapshot — an open cursor's version — always stays byte-stable.
// It returns the effective horizon after clamping (the new oldest
// readable sequence) and the number of versions folded away; a zero fold
// count means the chain was already compact at that horizon.
func (t *Table) Compact(horizon int64) (int64, int64, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	latest := t.base + int64(len(t.versions))
	h := horizon
	if h > latest {
		h = latest
	}
	if p := t.pinnedFloorLocked(); p > 0 && h > p {
		h = p
	}
	if h <= t.base+1 {
		return t.base + 1, 0, nil
	}
	orig, err := t.versionBySeqLocked(h)
	if err != nil {
		return 0, 0, err
	}
	// The folded version is a fresh struct — version structs are shared
	// with clones and exported checkpoints and must never be mutated.
	// Overwrite is semantically accurate (it replaces everything before
	// it), keeps ChangedSince/ChangeVolume conservative across the fold,
	// and marks the version as the start of the folded segment.
	folded := &Version{
		Seq:       h,
		Commit:    orig.Commit,
		Overwrite: true,
		RowCount:  orig.RowCount,
	}
	kept := t.versions[h-t.base:]
	dropped := h - 1 - t.base
	newVersions := make([]*Version, 0, 1+len(kept))
	newVersions = append(newVersions, folded)
	newVersions = append(newVersions, kept...)
	t.versions = newVersions
	t.base = h - 1
	t.foldLog(h)
	// Memoized versions below the new horizon are unreadable now; those at
	// or above it stay valid, since the fold keeps log order.
	memos := t.memos[:0]
	for _, m := range t.memos {
		if m.seq >= h {
			memos = append(memos, m)
		}
	}
	t.memos = memos
	return h, dropped, nil
}

// foldLog drops the segments that only versions below h read and, from
// the segment holding h, every entry deleted at or before h. The survivors
// keep their log order, so every retained version scans as it did before
// the fold. The folded segment is a fresh slice (readers scanning the old one are unaffected),
// so the live index of an owned last segment is rebuilt. Callers hold
// t.mu.
func (t *Table) foldLog(h int64) {
	first := len(t.segs) - 1
	for first > 0 && t.segs[first].from > h {
		first--
	}
	owned := first == len(t.segs)-1 && t.live != nil
	old := t.segs[first]
	folded := &segment{from: h, entries: make([]entry, 0, len(old.entries))}
	if owned {
		t.live = make(map[string]int, len(t.live))
	}
	for i := range old.entries {
		e := &old.entries[i]
		if del := e.del.Load(); del > h {
			pos := folded.add(e.id, e.row, e.ins, del)
			if owned && del == notDeleted {
				t.live[e.id] = pos
			}
		}
	}
	segs := make([]*segment, 0, len(t.segs)-first)
	segs = append(segs, folded)
	t.segs = append(segs, t.segs[first+1:]...)
}
