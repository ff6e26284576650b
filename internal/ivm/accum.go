package ivm

import (
	"fmt"

	"dyntables/internal/delta"
	"dyntables/internal/exec"
	"dyntables/internal/plan"
)

// Stored accumulators. The aggregate rule recomputes every affected group
// from both interval boundaries. For an invertible aggregate
// (exec.Invertible: COUNT, COUNT_IF and SUM over INT, none DISTINCT) the
// new group rows follow instead from the old ones and the input's Δ alone,
// when the groups' accumulators as of the interval's start are at hand.
// An AggStore keeps them between one DT's refreshes: per aggregate node,
// an exec.GroupState and the version map of the node's scans that it is
// valid at. A refresh whose interval starts exactly there folds Δ into
// the state; any other refresh (the first, one after recovery or after a
// FULL refresh, or after a failed one) takes the boundary path and then
// seeds the state once at the interval's end. The state lives in memory
// only, at the cost of one set of accumulators per group; it is not in the
// WAL or the checkpoint, and after recovery the first refresh that changes
// the node's input seeds it again.

// accumulators turns the stored-accumulator path on. Only tests turn it
// off, to compare change sets with the boundary path's byte for byte.
var accumulators = true

// AggStore holds the accumulator state of one DT's aggregate nodes
// between refreshes. The zero value is empty and ready. It is not safe
// for concurrent use: the DT's refresh lock serializes the refreshes that
// use it.
type AggStore struct {
	// states is keyed by node: its ordinal among the plan's invertible
	// aggregates and its plan.Fingerprint, so that a state never outlives
	// the node it was built for.
	states map[string]*aggState
	// nodes maps the current plan's aggregates to their states.
	nodes map[*plan.Aggregate]*aggState
}

// aggState is one aggregate node's stored accumulators.
type aggState struct {
	// scans are the storage IDs of the node's scans.
	scans []int64
	// at is the version map of the scans that groups is valid at; nil
	// when it is valid at none.
	at VersionMap
	// dead marks a node whose input the state cannot represent; it is
	// not seeded again.
	dead   bool
	groups *exec.GroupState
}

// attach maps the invertible aggregates of n to their states, creating
// the new nodes' states and dropping those of nodes n no longer has.
func (s *AggStore) attach(n plan.Node) {
	if s == nil {
		return
	}
	if s.nodes = nil; !accumulators {
		return
	}
	states := make(map[string]*aggState, len(s.states))
	s.nodes = make(map[*plan.Aggregate]*aggState)
	plan.Walk(n, func(node plan.Node) {
		a, ok := node.(*plan.Aggregate)
		if !ok || !exec.Invertible(a) {
			return
		}
		key := fmt.Sprintf("%d\n%s", len(states), plan.Fingerprint(a))
		st := s.states[key]
		if st == nil {
			st = &aggState{}
			seen := map[int64]bool{}
			for _, sc := range plan.Scans(a) {
				if id := sc.Table.ID(); !seen[id] {
					seen[id] = true
					st.scans = append(st.scans, id)
				}
			}
		}
		states[key] = st
		s.nodes[a] = st
	})
	s.states = states
}

// state returns the state of a, or nil when it has none.
func (s *AggStore) state(a *plan.Aggregate) *aggState {
	if s == nil {
		return nil
	}
	return s.nodes[a]
}

// validAt reports whether the state holds the groups as of vm.
func (st *aggState) validAt(vm VersionMap) bool {
	if st == nil || st.at == nil {
		return false
	}
	for _, id := range st.scans {
		if v, ok := vm[id]; !ok || v != st.at[id] {
			return false
		}
	}
	return true
}

// moveTo records that the groups are valid at vm.
func (st *aggState) moveTo(vm VersionMap) {
	st.at = make(VersionMap, len(st.scans))
	for _, id := range st.scans {
		st.at[id] = vm[id]
	}
}

// carry moves a state valid at the interval's start to its end, over
// which the node's input did not change.
func (st *aggState) carry(iv Interval) {
	if st.validAt(iv.From) {
		st.moveTo(iv.To)
	}
}

// fold computes the aggregate's Δ from the state and the input's Δ din,
// and moves the state to the interval's end. ok is false when the state
// does not hold the interval's start, or when the fold fails or the input
// at the end is not representable; the caller then takes the boundary
// path, which computes the change set or reports the error itself.
func (st *aggState) fold(din []delta.Change, iv Interval, env *Env) (_ []delta.Change, ok bool) {
	if st == nil || st.dead || !st.validAt(iv.From) {
		return nil, false
	}
	// The groups change in place below: they are valid at the end only
	// once the whole fold has gone through.
	st.at = nil
	cs := delta.ChangeSet{Changes: din}.ConsolidateSigned()
	ctx := &exec.Context{Now: env.Now, Counters: env.Counters}
	changes, ok, err := st.groups.Fold(byAction(cs.Changes, delta.Delete), byAction(cs.Changes, delta.Insert), ctx)
	if err != nil || !ok {
		// The groups are part-folded, so they go; input the state cannot
		// represent also kills the node.
		st.groups, st.dead = nil, err == nil
		return nil, false
	}
	st.moveTo(iv.To)
	env.stats(func(s *Stats) {
		s.GroupsRecomputed += int64(len(changes))
		s.AccumulatorFolds++
	})
	out := make([]delta.Change, 0, 2*len(changes))
	for _, c := range changes {
		if c.Old != nil {
			out = append(out, delta.Change{RowID: c.ID, Action: delta.Delete, Row: c.Old})
		}
		if c.New != nil {
			out = append(out, delta.Change{RowID: c.ID, Action: delta.Insert, Row: c.New})
		}
	}
	return out, true
}

// seed builds the state of a from its whole input as of vm, unless it
// already holds vm or the node is dead. Input the state cannot represent,
// or that fails to evaluate, kills the node; the refresh that seeds does
// not fail with it, because its change set came from the boundary path.
func (st *aggState) seed(a *plan.Aggregate, vm VersionMap, env *Env) {
	if st == nil || st.dead || st.validAt(vm) {
		return
	}
	rows, err := snapshot(a.Input, vm, env)
	g := exec.NewGroupState(a)
	ok := err == nil
	if ok {
		ok, err = g.Add(rows, &exec.Context{Now: env.Now, Counters: env.Counters})
	}
	if err != nil || !ok {
		st.dead, st.groups = true, nil
		return
	}
	st.groups = g
	st.moveTo(vm)
	env.stats(func(s *Stats) { s.AccumulatorSeeds++ })
}
