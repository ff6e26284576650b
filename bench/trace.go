package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed interval of a traced run. Spans of one operation share
// Op; Parent is the id of the span that caused this one (0 for an
// operation's root). Start and End are nanoseconds since the recorder began.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"`
	Op       int    `json:"op"`
	Name     string `json:"name"`
	Workload string `json:"workload"`
	Start    int64  `json:"start_ns"`
	End      int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// recorder keeps spans in memory and writes them out when the run ends. It
// lives in the benchmark, not in the engine: every layer is timed from
// outside, around calls into its public functions.
type recorder struct {
	mu       sync.Mutex
	workload string
	t0       time.Time
	spans    []span
	ops      int
}

func newRecorder(workload string) *recorder {
	return &recorder{workload: workload, t0: time.Now()}
}

// newOp allocates an operation id.
func (r *recorder) newOp() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.ops++
	return r.ops
}

// add records a span over an explicit interval and returns its id.
func (r *recorder) add(name string, op, parent int, start, end time.Time) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Op: op, Name: name, Workload: r.workload,
		Start: start.Sub(r.t0).Nanoseconds(), End: end.Sub(r.t0).Nanoseconds()})
	return id
}

// nest records a parent span of the given duration starting at start, with
// the children laid end to end inside it. This is how a sampled operation is
// decomposed from outside: the operation is executed whole (the parent's
// duration), then re-executed through each layer's entry point (the
// children's durations), and the re-executions are laid inside the parent so
// that nesting holds by construction. Durations are measured; only the
// children's offsets are synthetic. A child that would run past its parent
// is cut at the parent's end and reported in clipped, never hidden.
func (r *recorder) nest(op, parent int, start time.Time, name string, d time.Duration, children []child) (id int, clipped int) {
	end := start.Add(d)
	id = r.add(name, op, parent, start, end)
	at := start
	for _, c := range children {
		cd := c.d
		if at.Add(cd).After(end) {
			cd = end.Sub(at)
			clipped++
		}
		_, cc := r.nest(op, id, at, c.name, cd, c.children)
		clipped += cc
		at = at.Add(cd)
	}
	return id, clipped
}

// child is a measured re-execution to be laid inside a parent by nest.
type child struct {
	name     string
	d        time.Duration
	children []child
}

// write dumps the spans as trace-<workload>.json under dir.
func (r *recorder) write(dir string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	data, err := json.Marshal(r.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace-"+r.workload+".json"), data, 0o644)
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval its children cover. It rejects a tree in which a child leaves
// its parent's interval or two children of one parent overlap — either would
// make the subtraction meaningless.
func selfTimes(spans []span) (map[int]time.Duration, error) {
	byID := make(map[int]span, len(spans))
	kids := make(map[int][]span)
	for _, s := range spans {
		if s.End < s.Start {
			return nil, fmt.Errorf("span %d (%s) ends before it starts", s.ID, s.Name)
		}
		byID[s.ID] = s
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	for parent, cs := range kids {
		if _, ok := byID[parent]; !ok {
			return nil, fmt.Errorf("span %d (%s) names unknown parent %d", cs[0].ID, cs[0].Name, parent)
		}
	}
	self := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		cs := kids[s.ID]
		sort.Slice(cs, func(i, j int) bool { return cs[i].Start < cs[j].Start })
		covered := time.Duration(0)
		for i, c := range cs {
			if c.Start < s.Start || c.End > s.End {
				return nil, fmt.Errorf("span %d (%s) leaves its parent %d (%s)", c.ID, c.Name, s.ID, s.Name)
			}
			if i > 0 && c.Start < cs[i-1].End {
				return nil, fmt.Errorf("spans %d (%s) and %d (%s) overlap under parent %d (%s)",
					cs[i-1].ID, cs[i-1].Name, c.ID, c.Name, s.ID, s.Name)
			}
			covered += c.dur()
		}
		self[s.ID] = s.dur() - covered
	}
	return self, nil
}

// layerTotals is the self time and the total time of all spans of one name.
type layerTotals struct{ self, total time.Duration }

func selfByName(spans []span) (map[string]layerTotals, error) {
	self, err := selfTimes(spans)
	if err != nil {
		return nil, err
	}
	out := map[string]layerTotals{}
	for _, s := range spans {
		t := out[s.Name]
		t.self += self[s.ID]
		t.total += s.dur()
		out[s.Name] = t
	}
	return out, nil
}
