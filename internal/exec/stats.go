package exec

import (
	"sync"
	"time"

	"dyntables/internal/plan"
)

// NodeStat is the accumulated execution statistics of one plan node:
// rows produced, how many times the node was (re)executed, and its
// cumulative wall time including children (Postgres-style inclusive
// actual time).
type NodeStat struct {
	Rows  int64
	Loops int64
	Time  time.Duration
}

// NodeStats collects per-plan-node statistics for EXPLAIN ANALYZE.
// Attach one to Context.Stats to enable collection; a nil collector
// costs nothing. Safe for concurrent use.
type NodeStats struct {
	mu sync.Mutex
	m  map[plan.Node]*NodeStat
}

// NewNodeStats builds an empty collector.
func NewNodeStats() *NodeStats {
	return &NodeStats{m: make(map[plan.Node]*NodeStat)}
}

// Lookup returns a copy of the node's accumulated stats; ok is false
// when the node never executed.
func (s *NodeStats) Lookup(n plan.Node) (NodeStat, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	st, ok := s.m[n]
	if !ok {
		return NodeStat{}, false
	}
	return *st, true
}

// start marks the beginning of one node execution; on a nil collector it
// skips the clock read.
func (s *NodeStats) start() time.Time {
	if s == nil {
		return time.Time{}
	}
	return time.Now()
}

// observe records one execution of n that produced rows and began at
// start. The executor calls it exactly once per node execution, from Run
// for row operators and from runBatch for columnar ones; on a nil
// collector it does nothing.
func (s *NodeStats) observe(n plan.Node, rows int64, start time.Time) {
	if s == nil {
		return
	}
	d := time.Since(start)
	s.mu.Lock()
	st := s.m[n]
	if st == nil {
		st = &NodeStat{}
		s.m[n] = st
	}
	st.Rows += rows
	st.Loops++
	st.Time += d
	s.mu.Unlock()
}
