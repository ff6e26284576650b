package storage

import (
	"cmp"
	"slices"
	"sort"
	"sync/atomic"

	"dyntables/internal/types"
)

// Automatic lookups. A segment keeps, for each INT-family column a lookup
// has asked for, an index of sorted runs of (key, position) pairs over its
// entries. Since every entry carries the sequences that inserted and
// deleted it, one index serves every version that reads the segment: the
// runs find the entries whose key lies in range, and their sequences
// decide which of them a version sees. Readers build the first run on the
// first lookup of a column and fold later appends in lazily, so Apply does
// no index work.
//
// The runs form a stack over consecutive ranges of the entries, the
// oldest and largest at the bottom. Lookups check the entries past the top
// run, the tail, one by one. Once a reading lookup finds foldSize entries
// or more in the tail, it seals them into a new top run, then merges the
// top two runs while the lower one is at most twice the size of the upper
// one. Every run is then more than twice the size of the run above it, so
// N entries take at most log₂(N/foldSize)+1 runs, and an entry is copied
// by O(log N) merges over its life: a trickle of appends never pays a
// copy of the whole segment.

// foldSize is the tail a reading lookup seals into a new run.
const foldSize = 64

// lookupShare bounds the rows a selective lookup reads: when the runs show
// more candidates than 1/lookupShare of the version's rows,
// SelectiveLookup declines and the caller scans. Per BenchmarkLookupVsScan
// (internal/exec, 50k rows, 2-core Xeon), a range lookup costs ~0.14 µs
// per candidate over one run or over a stack of several, and a filter over
// the memoized version ~0.5 ms plus ~0.08 µs per match: 0.8 against 1.0 ms
// at N/8 candidates, 3.5 against 2.5 ms at N/2, so the two cross near N/6.
// A set of scattered point keys (BenchmarkLookupKeysVsScan, same table
// shape and host) bisects each run twice per key: ~0.34 µs per candidate
// over one run and ~0.45 µs over a stack, against a restrict of the
// memoized version at ~1.2 ms plus ~0.15 µs per match. Over one run that
// is 2.3 against 3.0 ms at N/8 and 4.2 against 3.3 ms at N/4, crossing
// near N/6; over a stack, 2.9 against 2.8 ms at N/8 and 5.8 against 3.5 ms
// at N/4, crossing near N/9. So at the bound a lookup costs up to ~1.3×
// (one run) to ~1.7× (a stack) what the scan would, less when the version
// is not memoized yet (refresh boundaries read new versions) and the scan
// would pay its build. A lower bound would change which rows refreshes
// read, and with them the simulated refresh costs that cmd/dtbench
// reports.
const lookupShare = 4

// run is a sorted index of one column over a range of a segment's
// entries, and the top of the stack of runs below it. A run is immutable
// once built; a seal or a merge builds a new one.
type run struct {
	// from and n bound the entries the run covers, entries[from:n]; the
	// runs below cover entries[:from].
	from, n int
	// keys and pos are parallel, by ascending key: the column's key and
	// the entry's position, 12 B per entry.
	keys []int64
	pos  []int32
	// unkeyed lists, ascending, the covered positions whose value is NULL or
	// of another kind than the column's. Every lookup returns them: a
	// range says nothing about them.
	unkeyed []int32
	// below is the run over the entries before from; nil at the bottom.
	below *run
}

// colIndex is a segment's index of one column. The first reader to look
// the column up builds the first run outside the table lock; readers that
// arrive meanwhile wait on built instead of building their own.
type colIndex struct {
	kind    types.Kind
	built   chan struct{} // closed once run holds the first run
	run     atomic.Pointer[run]
	merging atomic.Bool // a reader is sealing the tail into the stack
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
	r := &run{from: from, n: len(entries)}
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

// size is the number of entries the run covers.
func (r *run) size() int { return r.n - r.from }

// mergeRuns returns one run over the entries of lo and then those of up,
// the run directly above lo.
func mergeRuns(lo, up *run) *run {
	out := &run{
		from:    lo.from,
		n:       up.n,
		keys:    make([]int64, 0, len(lo.keys)+len(up.keys)),
		pos:     make([]int32, 0, len(lo.keys)+len(up.keys)),
		unkeyed: slices.Concat(lo.unkeyed, up.unkeyed),
		below:   lo.below,
	}
	i, j := 0, 0
	for i < len(lo.keys) && j < len(up.keys) {
		if up.keys[j] < lo.keys[i] {
			out.keys, out.pos = append(out.keys, up.keys[j]), append(out.pos, up.pos[j])
			j++
		} else {
			out.keys, out.pos = append(out.keys, lo.keys[i]), append(out.pos, lo.pos[i])
			i++
		}
	}
	out.keys, out.pos = append(out.keys, lo.keys[i:]...), append(out.pos, lo.pos[i:]...)
	out.keys, out.pos = append(out.keys, up.keys[j:]...), append(out.pos, up.pos[j:]...)
	return out
}

// seal returns the stack with r's tail in entries sealed into a new top
// run, the top two runs then merged while the lower one is at most twice
// the size of the upper one.
func (r *run) seal(entries []entry, col int, kind types.Kind) *run {
	top := newRun(entries, r.n, col, kind)
	top.below = r
	for top.below != nil && top.below.size() <= 2*top.size() {
		top = mergeRuns(top.below, top)
	}
	return top
}

// stack appends the runs from r down to buf, bottom (largest) first.
func (r *run) stack(buf []*run) []*run {
	for x := r; x != nil; x = x.below {
		buf = append(buf, x)
	}
	slices.Reverse(buf)
	return buf
}

// bytes is the memory of r and the runs below it: 12 B per keyed entry,
// 4 B per unkeyed one.
func (r *run) bytes() int64 {
	var b int64
	for x := r; x != nil; x = x.below {
		b += int64(12*len(x.keys) + 4*len(x.unkeyed))
	}
	return b
}

// current returns the stack to read entries through. When first is set
// the caller created ci and builds its first run; otherwise it waits for
// the first run. It seals no tail: fold does, once a lookup has decided to
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

// fold returns the stack to read entries through after r: r with its tail
// sealed in once the tail holds foldSize entries, unless another reader is
// already sealing one.
func (ci *colIndex) fold(r *run, entries []entry, col int) *run {
	if len(entries)-r.n >= foldSize && ci.merging.CompareAndSwap(false, true) {
		// Another seal may have landed between the load and the swap.
		if cur := ci.run.Load(); cur != r {
			r = cur
		} else {
			r = r.seal(entries, col, ci.kind)
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
// first run, and concurrent first lookups share one build; commits never
// wait for it.
func (t *Table) Lookup(seq int64, col int, lo, hi int64) (_ *types.Batch, ok bool, _ error) {
	return t.lookup(seq, col, lo, hi, false)
}

// SelectiveLookup is Lookup, except that it also declines (ok false,
// nothing read) when the runs show more candidates than 1/lookupShare of
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

// indexView is what a reader of one column's index sees: the top of its
// stack of runs, the segment's entries as of the read, and the version's
// row count.
type indexView struct {
	ci      *colIndex
	col     int
	r       *run
	entries []entry
	kind    types.Kind
	schema  types.Schema
	rows    int
}

// fold seals the view's tail into its stack as colIndex.fold does. The
// rows the view reads do not change: the new stack's spans are the old
// stack's spans plus the tail's matches.
func (v *indexView) fold() {
	v.r = v.ci.fold(v.r, v.entries, v.col)
}

// indexed returns the current stack of column col over the segment that
// version seq reads, building the first run as colIndex.current does. It
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
// rows. It counts the candidates in the runs, the largest first, and in
// the tail before it seals the tail, so a lookup that declines merges
// nothing and stops about as early as it would over one run.
func (t *Table) lookupRanges(seq int64, col int, rs []keyRange, selective bool) (*types.Batch, bool, error) {
	view, err := t.indexed(seq, col)
	if view == nil || err != nil {
		return nil, false, err
	}
	r, entries := view.r, view.entries
	over := func(n int) bool { return selective && n*lookupShare > view.rows }
	var buf [32]*run
	runs := r.stack(buf[:0])
	// Each span of a run holds one range's positions; the ranges are
	// sorted, so each search starts where the last one ended.
	var spans [][]int32
	n := 0
	for _, x := range runs {
		n += len(x.unkeyed)
		from := 0
		for _, kr := range rs {
			i := from + sort.Search(len(x.keys)-from, func(k int) bool { return x.keys[from+k] >= kr.lo })
			j := i + sort.Search(len(x.keys)-i, func(k int) bool { return x.keys[i+k] > kr.hi })
			if i < j {
				spans = append(spans, x.pos[i:j])
				n += j - i
			}
			if over(n) {
				return nil, false, nil
			}
			from = j
		}
	}
	// A lookup that declines seals nothing, so the tail can outgrow
	// foldSize: stop reading it as soon as the lookup declines.
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
		cand = append(cand, s...)
	}
	for _, x := range runs {
		cand = append(cand, x.unkeyed...)
	}
	cand = append(cand, tail...)
	slices.Sort(cand)
	ids := make([]string, 0, len(cand))
	rows := make([]types.Row, 0, len(cand))
	for _, p := range cand {
		// A run sealed by a later reader may cover entries appended after
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
// is not an INT-family column. It reads the column's runs and its tail,
// and only the NULL or other-kind values among the rows, so it is an upper
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
	var buf [32]*run
	runs := r.stack(buf[:0])
	n = distinctRunKeys(runs)
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
	for _, x := range runs {
		for _, p := range x.unkeyed {
			other(int(p))
		}
	}
	for p := r.n; p < len(entries); p++ {
		if k, keyed := keyOf(entries[p].row, col, view.kind); !keyed {
			other(p)
		} else if !slices.ContainsFunc(runs, func(x *run) bool {
			_, found := slices.BinarySearch(x.keys, k)
			return found
		}) {
			fresh[k] = true
		}
	}
	return n + len(fresh) + len(others), true, nil
}

// distinctRunKeys returns the number of distinct keys over runs, counted
// in one k-way merge of their sorted keys: a min-heap holds what is left
// of each run's keys, by its first key.
func distinctRunKeys(runs []*run) int {
	h := make([][]int64, 0, len(runs))
	for _, x := range runs {
		if len(x.keys) > 0 {
			h = append(h, x.keys)
		}
	}
	down := func(i int) {
		for {
			c := 2*i + 1
			if c >= len(h) {
				return
			}
			if c+1 < len(h) && h[c+1][0] < h[c][0] {
				c++
			}
			if h[i][0] <= h[c][0] {
				return
			}
			h[i], h[c] = h[c], h[i]
			i = c
		}
	}
	for i := len(h)/2 - 1; i >= 0; i-- {
		down(i)
	}
	n, last := 0, int64(0)
	for len(h) > 0 {
		// Take the top run's keys up to its next distinct key at once.
		top := h[0]
		if k := top[0]; n == 0 || k != last {
			n, last = n+1, k
		}
		j := 1
		for j < len(top) && top[j] == last {
			j++
		}
		if h[0] = top[j:]; len(h[0]) == 0 {
			h[0] = h[len(h)-1]
			h = h[:len(h)-1]
		}
		down(0)
	}
	return n
}
