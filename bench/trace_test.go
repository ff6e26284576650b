package main

import (
	"strings"
	"testing"
	"time"
)

func TestSelfTimesSumToRoot(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 60},
		{ID: 4, Parent: 3, Name: "c", Start: 35, End: 50},
	}
	self, err := selfTimes(spans)
	if err != nil {
		t.Fatal(err)
	}
	want := map[int]time.Duration{1: 50, 2: 20, 3: 15, 4: 15}
	var sum time.Duration
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], w)
		}
		sum += self[id]
	}
	if sum != spans[0].dur() {
		t.Errorf("self times sum to %d, the root lasts %d", sum, spans[0].dur())
	}
}

func TestSelfTimesRejectsBadTrees(t *testing.T) {
	for name, spans := range map[string][]span{
		"overlap": {
			{ID: 1, Name: "root", Start: 0, End: 100},
			{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
			{ID: 3, Parent: 1, Name: "b", Start: 30, End: 60},
		},
		"leaves its parent": {
			{ID: 1, Name: "root", Start: 0, End: 100},
			{ID: 2, Parent: 1, Name: "a", Start: 90, End: 110},
		},
		"unknown parent": {
			{ID: 1, Name: "root", Start: 0, End: 100},
			{ID: 2, Parent: 9, Name: "a", Start: 10, End: 20},
		},
	} {
		if _, err := selfTimes(spans); err == nil || !strings.Contains(err.Error(), name) {
			t.Errorf("%s: got error %v", name, err)
		}
	}
}

// TestNestClipsAndStaysValid lays children that add up to more than their
// parent: the tree must stay valid and the cut be reported.
func TestNestClipsAndStaysValid(t *testing.T) {
	r := newRecorder("test")
	_, clipped := r.nest(r.newOp(), 0, r.t0, "parent", 100, []child{
		{"x", 60, []child{{"x1", 50, nil}}}, {"y", 70, nil}})
	if clipped != 1 {
		t.Errorf("clipped = %d, want 1", clipped)
	}
	self, err := selfTimes(r.spans)
	if err != nil {
		t.Fatal(err)
	}
	var sum time.Duration
	for _, d := range self {
		sum += d
	}
	if sum != 100 {
		t.Errorf("self times sum to %d, want 100", sum)
	}
}
