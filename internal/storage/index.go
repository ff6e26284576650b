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
// A set of scattered point keys (BenchmarkLookupKeysVsScan, same table and
// host) costs ~0.36 µs per candidate against a restrict of the memoized
// version at ~1.5 ms plus ~0.17 µs per match: 2.5 against 3.6 ms at N/8,
// 4.7 against 4.2 ms at N/4. They cross near N/5, so at the bound a key
// set costs up to ~10% more than the scan would, less when the version is
// not memoized yet (refresh boundaries read new versions) and the scan
// would pay its build.
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
// caller created ci and builds its first run; otherwise it waits for the
// first run. It folds no tail: fold does, once a lookup has decided to
// read.
func (ci *colIndex) current(entries []entry, col int, first bool) *run {
	if first {
		r := newRun(entries, 0, col, ci.kind)
		ci.run.Store(r)
		ci.merging.Store(false)
		close(ci.built)
		return r
	}
	<-ci.built
	return ci.run.Load()
}

// fold returns the run to read entries through after r: when the tail has
// outgrown r (tail² > entries), r with the tail folded in, unless another
// reader is already folding it. Merging then costs amortized O(√N) per
// appended entry, and a lookup reads at most ~√N tail entries.
func (ci *colIndex) fold(r *run, entries []entry, col int) *run {
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

// keyRange is the closed range [lo, hi] of keys.
type keyRange struct{ lo, hi int64 }

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

// SelectiveLookupKeys is SelectiveLookup for a set of point keys, in any
// order and possibly repeated: it returns the visible rows whose col
// equals one of keys, and the visible rows whose col is NULL or of another
// kind. It declines when the candidates of all the keys together exceed
// 1/lookupShare of the version's rows.
func (t *Table) SelectiveLookupKeys(seq int64, col int, keys []int64) (_ *types.Batch, ok bool, _ error) {
	return t.lookupRanges(seq, col, pointRanges(keys), true)
}

// lookup is lookupRanges over [lo, hi], or over no range when lo > hi.
func (t *Table) lookup(seq int64, col int, lo, hi int64, selective bool) (*types.Batch, bool, error) {
	var rs []keyRange
	if lo <= hi {
		rs = []keyRange{{lo, hi}}
	}
	return t.lookupRanges(seq, col, rs, selective)
}

// pointRanges returns the sorted, disjoint ranges that hold exactly keys:
// one per run of consecutive keys.
func pointRanges(keys []int64) []keyRange {
	sorted := slices.Clone(keys)
	slices.Sort(sorted)
	var rs []keyRange
	for _, k := range sorted {
		switch n := len(rs); {
		case n > 0 && k <= rs[n-1].hi: // a repeat
		case n > 0 && k == rs[n-1].hi+1:
			rs[n-1].hi = k
		default:
			rs = append(rs, keyRange{k, k})
		}
	}
	return rs
}

// inRanges reports whether k lies in one of the sorted, disjoint ranges.
func inRanges(rs []keyRange, k int64) bool {
	i := sort.Search(len(rs), func(i int) bool { return rs[i].hi >= k })
	return i < len(rs) && rs[i].lo <= k
}

// indexView is what a reader of one column's run sees: the run, the
// segment's entries as of the read, and the version's row count.
type indexView struct {
	ci      *colIndex
	col     int
	r       *run
	entries []entry
	kind    types.Kind
	schema  types.Schema
	rows    int
}

// fold folds the view's tail into its run as colIndex.fold does. The
// rows the view reads do not change: the merged run's spans are the
// unmerged run's spans plus the tail's matches.
func (v *indexView) fold() {
	v.r = v.ci.fold(v.r, v.entries, v.col)
}

// indexed returns the current run of column col over the segment that
// version seq reads, building the first one as colIndex.current does. It
// returns nil, and reads nothing, when col is not an INT-family column.
func (t *Table) indexed(seq int64, col int) (*indexView, error) {
	t.mu.Lock()
	v, err := t.versionBySeqLocked(seq)
	if err != nil {
		t.mu.Unlock()
		return nil, err
	}
	if col < 0 || col >= t.schema.Len() || !t.schema.Column(col).Kind.IntFamily() {
		t.mu.Unlock()
		return nil, nil
	}
	view := &indexView{col: col, kind: t.schema.Column(col).Kind, schema: t.schema, rows: v.RowCount}
	seg := t.segmentFor(seq)
	view.entries = seg.entries
	ci := seg.index[col]
	first := ci == nil || ci.kind != view.kind
	if first {
		ci = &colIndex{kind: view.kind, built: make(chan struct{})}
		ci.merging.Store(true)
		if seg.index == nil {
			seg.index = make(map[int]*colIndex)
		}
		seg.index[col] = ci
	}
	t.mu.Unlock()

	view.ci, view.r = ci, ci.current(view.entries, col, first)
	return view, nil
}

// lookupRanges returns, as a batch in log order, the rows visible at
// version seq whose column col lies in one of the sorted, disjoint ranges
// rs, and the visible rows whose col is NULL or of another kind. ok is
// false when col is not an INT-family column and, when selective, when
// the candidates over all of rs exceed 1/lookupShare of the version's
// rows. It counts the candidates in the run and its tail before it folds
// the tail, so a lookup that declines merges nothing.
func (t *Table) lookupRanges(seq int64, col int, rs []keyRange, selective bool) (*types.Batch, bool, error) {
	view, err := t.indexed(seq, col)
	if view == nil || err != nil {
		return nil, false, err
	}
	r, entries := view.r, view.entries
	over := func(n int) bool { return selective && n*lookupShare > view.rows }
	// Each span [i, j) of the run holds one range's keys; the ranges are
	// sorted, so each search starts where the last one ended.
	var spans [][2]int
	n, from := len(r.unkeyed), 0
	for _, kr := range rs {
		i := from + sort.Search(len(r.keys)-from, func(k int) bool { return r.keys[from+k] >= kr.lo })
		j := i + sort.Search(len(r.keys)-i, func(k int) bool { return r.keys[i+k] > kr.hi })
		if i < j {
			spans = append(spans, [2]int{i, j})
			n += j - i
		}
		if over(n) {
			return nil, false, nil
		}
		from = j
	}
	// A lookup that declines folds nothing, so the tail can outgrow √N:
	// stop reading it as soon as the lookup declines.
	var tail []int32
	for p := r.n; p < len(entries); p++ {
		if k, keyed := keyOf(entries[p].row, col, view.kind); !keyed || inRanges(rs, k) {
			tail = append(tail, int32(p))
			if n++; over(n) {
				return nil, false, nil
			}
		}
	}
	if over(n) {
		return nil, false, nil
	}
	view.fold()
	cand := make([]int32, 0, n)
	for _, s := range spans {
		cand = append(cand, r.pos[s[0]:s[1]]...)
	}
	cand = append(append(cand, r.unkeyed...), tail...)
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
	return types.NewBatch(view.schema, ids, rows), true, nil
}

// DistinctKeys returns the number of distinct values that INT-family
// column col takes in the row log version seq reads; ok is false when col
// is not an INT-family column. It reads the column's run and its tail, and
// only the NULL or other-kind values among the rows, so it is an upper
// bound on the distinct values visible at seq: it still counts a value
// whose rows were all deleted, or inserted after seq, until compaction
// folds the log.
func (t *Table) DistinctKeys(seq int64, col int) (n int, ok bool, _ error) {
	view, err := t.indexed(seq, col)
	if view == nil || err != nil {
		return 0, false, err
	}
	view.fold()
	r, entries := view.r, view.entries
	for i, k := range r.keys {
		if i == 0 || k != r.keys[i-1] {
			n++
		}
	}
	fresh := map[int64]bool{}
	others := map[string]bool{}
	other := func(p int) {
		if p >= len(entries) {
			return
		}
		v := types.Null // a row shorter than the schema reads NULL
		if row := entries[p].row; col < len(row) {
			v = row[col]
		}
		others[string(v.EncodeKey(nil))] = true
	}
	for _, p := range r.unkeyed {
		other(int(p))
	}
	for p := r.n; p < len(entries); p++ {
		if k, keyed := keyOf(entries[p].row, col, view.kind); !keyed {
			other(p)
		} else if _, found := slices.BinarySearch(r.keys, k); !found {
			fresh[k] = true
		}
	}
	return n + len(fresh) + len(others), true, nil
}
