package storage

import (
	"cmp"
	"slices"
	"sort"
	"sync/atomic"

	"dyntables/internal/types"
)

// Automatic lookups. A segment keeps, for each INT-family column a lookup
// has asked for, a sorted run of (key, position) pairs over its entries.
// Since every entry carries the sequences that inserted and deleted it, one
// run serves every version that reads the segment: the run finds the
// entries whose key lies in range, and their sequences decide which of them
// a version sees. Readers build a run on the first lookup of a column and
// fold later appends into it lazily, so Apply does no index work.

// lookupShare bounds the rows a selective lookup reads: when the run shows
// more candidates than 1/lookupShare of the version's rows,
// SelectiveLookup declines and the caller scans. Per
// BenchmarkLookupVsScan (internal/exec, 50k rows, 2-core Xeon), a lookup
// costs ~0.33 µs per candidate and a filter over the memoized version
// ~3.5 ms plus ~0.16 µs per match: 2.1 against 4.5 ms at N/8 candidates,
// 8.9 against 7.6 ms at N/2. The two cross near 0.4N, so declining above
// N/4 keeps every lookup on the winning side with a margin for wider rows.
const lookupShare = 4

// run is a sorted index of one column over a prefix of a segment's
// entries. A run is immutable once built; a merge builds a new one.
type run struct {
	// n is the number of entries the run covers, entries[:n]. Lookups
	// check the entries after them, the tail, one by one.
	n int
	// keys and pos are parallel, by ascending key: the column's key and
	// the entry's position, 12 B per entry.
	keys []int64
	pos  []int32
	// unkeyed lists, ascending, the covered positions whose value is NULL or
	// of another kind than the column's. Every lookup returns them: a
	// range says nothing about them.
	unkeyed []int32
}

// colIndex is a segment's index of one column. The first reader to look
// the column up builds the first run outside the table lock; readers that
// arrive meanwhile wait on built instead of building their own.
type colIndex struct {
	kind    types.Kind
	built   chan struct{} // closed once run holds the first run
	run     atomic.Pointer[run]
	merging atomic.Bool // a reader is folding the tail into a new run
}

// keyOf returns row's key in column col, or false when the value is NULL
// or not of kind.
func keyOf(row types.Row, col int, kind types.Kind) (int64, bool) {
	if col >= len(row) || row[col].Kind() != kind {
		return 0, false
	}
	return row[col].IntPayload(), true
}

// newRun indexes column col of entries[from:].
func newRun(entries []entry, from, col int, kind types.Kind) *run {
	type keyPos struct {
		key int64
		pos int32
	}
	pairs := make([]keyPos, 0, len(entries)-from)
	r := &run{n: len(entries)}
	for i := from; i < len(entries); i++ {
		if k, ok := keyOf(entries[i].row, col, kind); ok {
			pairs = append(pairs, keyPos{k, int32(i)})
		} else {
			r.unkeyed = append(r.unkeyed, int32(i))
		}
	}
	slices.SortFunc(pairs, func(a, b keyPos) int { return cmp.Compare(a.key, b.key) })
	r.keys = make([]int64, len(pairs))
	r.pos = make([]int32, len(pairs))
	for i, p := range pairs {
		r.keys[i], r.pos[i] = p.key, p.pos
	}
	return r
}

// merge returns a run covering all of entries: r with its tail folded in.
func (r *run) merge(entries []entry, col int, kind types.Kind) *run {
	tail := newRun(entries, r.n, col, kind)
	out := &run{
		n:       tail.n,
		keys:    make([]int64, 0, len(r.keys)+len(tail.keys)),
		pos:     make([]int32, 0, len(r.keys)+len(tail.keys)),
		unkeyed: slices.Concat(r.unkeyed, tail.unkeyed),
	}
	i, j := 0, 0
	for i < len(r.keys) && j < len(tail.keys) {
		if tail.keys[j] < r.keys[i] {
			out.keys, out.pos = append(out.keys, tail.keys[j]), append(out.pos, tail.pos[j])
			j++
		} else {
			out.keys, out.pos = append(out.keys, r.keys[i]), append(out.pos, r.pos[i])
			i++
		}
	}
	out.keys, out.pos = append(out.keys, r.keys[i:]...), append(out.pos, r.pos[i:]...)
	out.keys, out.pos = append(out.keys, tail.keys[j:]...), append(out.pos, tail.pos[j:]...)
	return out
}

// bytes is the run's memory: 12 B per keyed entry, 4 B per unkeyed one.
func (r *run) bytes() int64 {
	return int64(12*len(r.keys) + 4*len(r.unkeyed))
}

// current returns the run to read entries through. When first is set the
// caller created ci and builds its first run. Otherwise it waits for the
// first run and, when the tail has outgrown the run (tail² > entries),
// folds the tail in unless another reader is already doing so. Merging
// then costs amortized O(√N) per appended entry, and a lookup reads at
// most ~√N tail entries.
func (ci *colIndex) current(entries []entry, col int, first bool) *run {
	if first {
		r := newRun(entries, 0, col, ci.kind)
		ci.run.Store(r)
		ci.merging.Store(false)
		close(ci.built)
		return r
	}
	<-ci.built
	r := ci.run.Load()
	if tail := len(entries) - r.n; tail > 0 && tail*tail > len(entries) && ci.merging.CompareAndSwap(false, true) {
		// Another merge may have landed between the load and the swap.
		if cur := ci.run.Load(); cur != r {
			r = cur
		} else {
			r = r.merge(entries, col, ci.kind)
			ci.run.Store(r)
		}
		ci.merging.Store(false)
	}
	return r
}

// Lookup returns, as a batch in log order, the rows visible at version seq
// whose INT-family column col lies in [lo, hi] (empty when lo > hi), and
// the visible rows whose col is NULL or of another kind. That is a
// superset of the rows a range predicate on col can match; the caller
// filters it. ok is false, and nothing is read, when col is not an
// INT-family column. The first lookup of a column in a segment builds its
// run, and concurrent first lookups share one build; commits never wait
// for it.
func (t *Table) Lookup(seq int64, col int, lo, hi int64) (_ *types.Batch, ok bool, _ error) {
	return t.lookup(seq, col, lo, hi, false)
}

// SelectiveLookup is Lookup, except that it also declines (ok false,
// nothing read) when the run shows more candidates than 1/lookupShare of
// the version's rows, where scanning the memoized version is cheaper.
func (t *Table) SelectiveLookup(seq int64, col int, lo, hi int64) (_ *types.Batch, ok bool, _ error) {
	return t.lookup(seq, col, lo, hi, true)
}

func (t *Table) lookup(seq int64, col int, lo, hi int64, selective bool) (*types.Batch, bool, error) {
	t.mu.Lock()
	v, err := t.versionBySeqLocked(seq)
	if err != nil {
		t.mu.Unlock()
		return nil, false, err
	}
	if col < 0 || col >= t.schema.Len() || !t.schema.Column(col).Kind.IntFamily() {
		t.mu.Unlock()
		return nil, false, nil
	}
	schema, kind := t.schema, t.schema.Column(col).Kind
	seg := t.segmentFor(seq)
	entries := seg.entries
	ci := seg.index[col]
	first := ci == nil || ci.kind != kind
	if first {
		ci = &colIndex{kind: kind, built: make(chan struct{})}
		ci.merging.Store(true)
		if seg.index == nil {
			seg.index = make(map[int]*colIndex)
		}
		seg.index[col] = ci
	}
	t.mu.Unlock()

	r := ci.current(entries, col, first)
	i, j := 0, 0
	if lo <= hi {
		i = sort.Search(len(r.keys), func(k int) bool { return r.keys[k] >= lo })
		j = i + sort.Search(len(r.keys)-i, func(k int) bool { return r.keys[i+k] > hi })
	}
	var tail []int32
	for p := r.n; p < len(entries); p++ {
		if k, keyed := keyOf(entries[p].row, col, kind); !keyed || lo <= k && k <= hi {
			tail = append(tail, int32(p))
		}
	}
	n := j - i + len(r.unkeyed) + len(tail)
	if selective && n*lookupShare > v.RowCount {
		return nil, false, nil
	}
	cand := make([]int32, 0, n)
	cand = append(append(append(cand, r.pos[i:j]...), r.unkeyed...), tail...)
	slices.Sort(cand)
	ids := make([]string, 0, len(cand))
	rows := make([]types.Row, 0, len(cand))
	for _, p := range cand {
		// A run merged by a later reader may cover entries appended after
		// this reader's view of the log; no version up to seq sees them.
		if int(p) >= len(entries) {
			break
		}
		if e := &entries[p]; e.visibleAt(seq) {
			ids = append(ids, e.id)
			rows = append(rows, e.row)
		}
	}
	return types.NewBatch(schema, ids, rows), true, nil
}
