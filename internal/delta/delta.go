// Package delta defines the change model used throughout the IVM engine:
// signed change rows carrying the $ROW_ID and $ACTION metadata columns of
// §5.5, change sets, the consolidation step that guarantees at most one row
// per ($ROW_ID, $ACTION) pair, and helpers for applying changes to stored
// results.
package delta

import (
	"bytes"
	"fmt"
	"slices"
	"sort"
	"strings"

	"dyntables/internal/types"
)

// Action is the $ACTION metadata column: whether a change row represents an
// insertion into or a deletion from the maintained result. Updates are
// represented as a deletion and an insertion sharing a $ROW_ID.
type Action uint8

// The two change actions.
const (
	Insert Action = iota
	Delete
)

// String returns "INSERT" or "DELETE".
func (a Action) String() string {
	if a == Insert {
		return "INSERT"
	}
	return "DELETE"
}

// Change is one change row: the $ROW_ID identifying the affected result
// row, the $ACTION, and the row contents.
type Change struct {
	RowID  string
	Action Action
	Row    types.Row
}

// String renders the change for diagnostics.
func (c Change) String() string {
	sign := "+"
	if c.Action == Delete {
		sign = "-"
	}
	return fmt.Sprintf("%s%s %s", sign, c.RowID, c.Row)
}

// ChangeSet is an ordered collection of change rows.
type ChangeSet struct {
	Changes []Change
}

// Len returns the number of change rows.
func (cs *ChangeSet) Len() int { return len(cs.Changes) }

// Empty reports whether the change set carries no changes.
func (cs *ChangeSet) Empty() bool { return len(cs.Changes) == 0 }

// Add appends a change row.
func (cs *ChangeSet) Add(c Change) { cs.Changes = append(cs.Changes, c) }

// AddInsert appends an insertion.
func (cs *ChangeSet) AddInsert(rowID string, row types.Row) {
	cs.Add(Change{RowID: rowID, Action: Insert, Row: row})
}

// AddDelete appends a deletion.
func (cs *ChangeSet) AddDelete(rowID string, row types.Row) {
	cs.Add(Change{RowID: rowID, Action: Delete, Row: row})
}

// Append concatenates another change set.
func (cs *ChangeSet) Append(o ChangeSet) {
	cs.Changes = append(cs.Changes, o.Changes...)
}

// InsertOnly reports whether the set contains no deletions.
func (cs *ChangeSet) InsertOnly() bool {
	for _, c := range cs.Changes {
		if c.Action == Delete {
			return false
		}
	}
	return true
}

// Counts returns the number of insertions and deletions.
func (cs *ChangeSet) Counts() (inserts, deletes int) {
	for _, c := range cs.Changes {
		if c.Action == Insert {
			inserts++
		} else {
			deletes++
		}
	}
	return inserts, deletes
}

// Clone returns a deep-enough copy: the slice is copied, rows are shared
// (rows are treated as immutable throughout the engine).
func (cs *ChangeSet) Clone() ChangeSet {
	out := make([]Change, len(cs.Changes))
	copy(out, cs.Changes)
	return ChangeSet{Changes: out}
}

// Consolidate folds the change set, treating it as an ordered sequence of
// changes, into its net effect: at most one row per ($ROW_ID, $ACTION)
// pair, with intermediate states eliminated. A row inserted and later
// deleted within the set vanishes entirely; a row inserted and later
// updated nets to a single insertion of the final contents; a deletion
// followed by a re-insertion of identical contents cancels out. This is
// what makes consolidation suitable both for intra-refresh duplicate
// elimination (§5.5) and for collapsing a sequence of per-version change
// sets into the change interval of a refresh that follows skips (§3.3.3).
//
// The result preserves a deterministic order: deletions first, then
// insertions, each sorted by $ROW_ID.
func (cs ChangeSet) Consolidate() ChangeSet {
	type state struct {
		id          string
		deletedOld  types.Row // pre-interval row this interval deletes
		hasDel      bool
		insertedNew types.Row // post-interval row this interval installs
		hasIns      bool
	}
	at := make(map[string]int32, len(cs.Changes))
	states := make([]state, 0, len(cs.Changes))
	for _, c := range cs.Changes {
		i, ok := at[c.RowID]
		if !ok {
			i = int32(len(states))
			at[c.RowID] = i
			states = append(states, state{id: c.RowID})
		}
		st := &states[i]
		if c.Action == Insert {
			// A later insert supersedes any pending insert for the rowid.
			st.insertedNew, st.hasIns = c.Row, true
		} else {
			if st.hasIns {
				// Deleting a row this very interval inserted: they cancel,
				// leaving any earlier pre-interval deletion in place.
				st.insertedNew, st.hasIns = nil, false
			} else if !st.hasDel {
				// First deletion removes the pre-interval row.
				st.deletedOld, st.hasDel = c.Row, true
			}
		}
	}
	order := make([]int32, len(states))
	for i := range order {
		order[i] = int32(i)
	}
	slices.SortFunc(order, func(a, b int32) int { return strings.Compare(states[a].id, states[b].id) })
	n := 0
	for i := range states {
		st := &states[i]
		if st.hasDel && st.hasIns && st.deletedOld.Equal(st.insertedNew) {
			// A deletion and a re-insertion of equal contents cancel.
			st.hasDel, st.hasIns = false, false
		}
		if st.hasDel {
			n++
		}
		if st.hasIns {
			n++
		}
	}
	var out ChangeSet
	if n > 0 {
		out.Changes = make([]Change, 0, n)
	}
	// Deletions first so merges never insert before clearing a row.
	for _, i := range order {
		if st := &states[i]; st.hasDel {
			out.AddDelete(st.id, st.deletedOld)
		}
	}
	for _, i := range order {
		if st := &states[i]; st.hasIns {
			out.AddInsert(st.id, st.insertedNew)
		}
	}
	return out
}

// ConsolidateSigned consolidates the change set as a signed multiset: each
// (row ID, row value) pair accumulates +1 per insertion and −1 per
// deletion, and pairs with a zero sum vanish. This is the consolidation
// the differentiation algebra requires (§5.5): the bilinear join rule can
// emit an insertion and a deletion of the same (ID, value) from different
// terms, which must cancel exactly, independent of emission order —
// unlike Consolidate, which folds an ordered operation log.
//
// Two rows are the same value when their key encodings (types.Row.EncodeKey)
// are equal, so INT 1 and FLOAT 1.0 are different values. A pair's
// surviving row is its first in emission order. The result lists
// deletions before insertions, each sorted by row ID and then by the row's
// key encoding.
//
// The changes are grouped by row ID, and rows are encoded and compared
// only within a group of more than one change, in one buffer reused
// across groups; a row ID's lone change survives as it is.
func (cs ChangeSet) ConsolidateSigned() ChangeSet {
	// Group the changes by row ID, in first-seen order.
	group := make([]int32, len(cs.Changes))
	byID := make(map[string]int32, len(cs.Changes))
	var ids []string
	var sizes []int32
	for i, c := range cs.Changes {
		g, ok := byID[c.RowID]
		if !ok {
			g = int32(len(ids))
			byID[c.RowID] = g
			ids = append(ids, c.RowID)
			sizes = append(sizes, 0)
		}
		group[i] = g
		sizes[g]++
	}
	sorted := make([]int32, len(ids))
	for g := range sorted {
		sorted[g] = int32(g)
	}
	slices.SortFunc(sorted, func(a, b int32) int { return strings.Compare(ids[a], ids[b]) })
	// Lay the changes out by group in row-ID order, each group's in
	// emission order.
	next := make([]int32, len(ids))
	off := int32(0)
	for _, g := range sorted {
		next[g], off = off, off+sizes[g]
	}
	order := make([]int32, len(cs.Changes))
	for i, g := range group {
		order[next[g]] = int32(i)
		next[g]++
	}

	type sum struct {
		change int32 // the pair's first change, whose row survives
		count  int32
	}
	var sums []sum
	var enc []byte
	var spans [][2]int32 // per change of a group: its encoding in enc
	var pos []int
	var nDel, nIns int
	add := func(s sum) {
		switch {
		case s.count < 0:
			nDel += int(-s.count)
		case s.count > 0:
			nIns += int(s.count)
		default:
			return
		}
		sums = append(sums, s)
	}
	sign := func(i int32) int32 {
		if cs.Changes[i].Action == Insert {
			return 1
		}
		return -1
	}
	for from := 0; from < len(order); {
		to := from + int(sizes[group[order[from]]])
		grp := order[from:to]
		from = to
		if len(grp) == 1 {
			add(sum{grp[0], sign(grp[0])})
			continue
		}
		enc, spans = enc[:0], spans[:0]
		for _, i := range grp {
			start := int32(len(enc))
			enc = cs.Changes[i].Row.EncodeKey(enc)
			spans = append(spans, [2]int32{start, int32(len(enc))})
		}
		key := func(k int) []byte { return enc[spans[k][0]:spans[k][1]] }
		// Sort the group's positions by encoding; the stable sort keeps
		// equal rows in emission order, so a run starts at its first.
		pos = pos[:0]
		for k := range grp {
			pos = append(pos, k)
		}
		slices.SortStableFunc(pos, func(a, b int) int { return bytes.Compare(key(a), key(b)) })
		for r := 0; r < len(pos); {
			s := sum{change: grp[pos[r]]}
			q := r
			for ; q < len(pos) && bytes.Equal(key(pos[q]), key(pos[r])); q++ {
				s.count += sign(grp[pos[q]])
			}
			add(s)
			r = q
		}
	}

	out := ChangeSet{Changes: make([]Change, 0, nDel+nIns)}
	for _, s := range sums {
		c := cs.Changes[s.change]
		for k := int32(0); k > s.count; k-- {
			out.AddDelete(c.RowID, c.Row)
		}
	}
	for _, s := range sums {
		c := cs.Changes[s.change]
		for k := int32(0); k < s.count; k++ {
			out.AddInsert(c.RowID, c.Row)
		}
	}
	return out
}

// ValidateWellFormed checks the §6.1 production invariant that a change set
// contains at most one row per ($ROW_ID, $ACTION) pair. It returns an error
// naming the first offending pair.
func (cs *ChangeSet) ValidateWellFormed() error {
	// seen holds one bit per action a row ID has had.
	seen := make(map[string]uint8, len(cs.Changes))
	for _, c := range cs.Changes {
		bit := uint8(1) << c.Action
		if seen[c.RowID]&bit != 0 {
			return fmt.Errorf("delta: duplicate (%s, %s) in change set", c.RowID, c.Action)
		}
		seen[c.RowID] |= bit
	}
	return nil
}

// Invert returns the change set that undoes cs: insertions become
// deletions and vice versa.
func (cs ChangeSet) Invert() ChangeSet {
	out := ChangeSet{Changes: make([]Change, len(cs.Changes))}
	for i, c := range cs.Changes {
		inv := c
		if c.Action == Insert {
			inv.Action = Delete
		} else {
			inv.Action = Insert
		}
		out.Changes[i] = inv
	}
	return out
}

// Diff computes the change set transforming the row map `from` into `to`.
// Rows present in both with equal contents produce no change; rows present
// in both with different contents produce a delete+insert pair.
func Diff(from, to map[string]types.Row) ChangeSet {
	var cs ChangeSet
	ids := make([]string, 0, len(from)+len(to))
	for id := range from {
		ids = append(ids, id)
	}
	for id := range to {
		if _, ok := from[id]; !ok {
			ids = append(ids, id)
		}
	}
	sort.Strings(ids)
	for _, id := range ids {
		oldRow, hadOld := from[id]
		newRow, hasNew := to[id]
		switch {
		case hadOld && hasNew:
			if !oldRow.Equal(newRow) {
				cs.AddDelete(id, oldRow)
				cs.AddInsert(id, newRow)
			}
		case hadOld:
			cs.AddDelete(id, oldRow)
		default:
			cs.AddInsert(id, newRow)
		}
	}
	return cs
}
