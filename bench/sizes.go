package main

// Every size of the benchmark lives in this file. They are constants, not
// flags: both sides of a comparison must do identical work, so changing a
// size is a benchmark change, not a tuning knob. bench/README.md explains
// how each was chosen.

// Fixed shape of the generated data (see gen.go).
const (
	dimsRows  = 1000 // dims table; facts.dim = id % dimsRows
	grpCount  = 97   // facts.grp = id % grpCount
	vModulus  = 101  // facts.v = id % vModulus
	loadBatch = 1000 // rows per INSERT ... VALUES statement during load
	pageRows  = 100  // cursor page size of a range_scan
	rangeRows = 500  // rows a range_scan drains
)

// defaultSeconds is the run length the operation counts below were sized
// for on the 2-core reference box; BENCHMARK.json's run_seconds equals it.
// -seconds scales every per-episode count by seconds/defaultSeconds.
const defaultSeconds = 12

// sizes holds every operation count. Counts are per episode: a run sets up
// a fresh engine `episodes` times (so setup_s is a median of that many
// set-ups) and pools the measured samples of all episodes.
type sizes struct {
	Episodes int

	MemRows     int // facts rows on the in-memory workloads
	DurableRows int // facts rows on serve_write and the durability probes

	TrickleDelta, TrickleRounds, TrickleWarm int
	BulkDelta, BulkRounds, BulkWarm          int

	ReadStmts, ReadWarm int // per client

	WriteCycles, WriteWarm int
	WriteInsert            int // rows per cycle INSERT
	WriteUpdate            int // rows per cycle UPDATE

	// Traced run.
	ReplayDivisor  int // the traced run replays 1/ReplayDivisor of the ops
	ProbeReps      int // repetitions of a cheap (sub-millisecond) probe
	ProbeSlowReps  int // repetitions of an O(table) probe
	RefreshRounds  int // decomposed refresh rounds
	ContendedReads int // reader-only reads before the writer starts
	ContendedDML   int // writer cycles of the contention probe
}

// fullSizes is the benchmark proper.
var fullSizes = sizes{
	Episodes:    3,
	MemRows:     50_000,
	DurableRows: 25_000,

	TrickleDelta: 10, TrickleRounds: 34, TrickleWarm: 3,
	BulkDelta: 5_000, BulkRounds: 7, BulkWarm: 1,

	ReadStmts: 1500, ReadWarm: 200,

	WriteCycles: 70, WriteWarm: 5,
	WriteInsert: 20, WriteUpdate: 5,

	ReplayDivisor:  4,
	ProbeReps:      60,
	ProbeSlowReps:  7,
	RefreshRounds:  6,
	ContendedReads: 200,
	ContendedDML:   10,
}

// smokeSizes keeps `go test ./...` fast (also under -race); it exercises
// every code path and every metric but its numbers mean nothing.
var smokeSizes = sizes{
	Episodes:    1,
	MemRows:     2_000,
	DurableRows: 1_000,

	TrickleDelta: 10, TrickleRounds: 5, TrickleWarm: 1,
	BulkDelta: 200, BulkRounds: 3, BulkWarm: 1,

	ReadStmts: 100, ReadWarm: 10,

	WriteCycles: 12, WriteWarm: 2,
	WriteInsert: 20, WriteUpdate: 5,

	ReplayDivisor:  4,
	ProbeReps:      3,
	ProbeSlowReps:  3,
	RefreshRounds:  2,
	ContendedReads: 10,
	ContendedDML:   2,
}

// scaled returns the sizes for a run of the given length. Only the measured
// operation counts scale; table sizes, delta sizes and warm-up do not, so a
// longer run has more samples of the same operations.
func (s sizes) scaled(seconds int) sizes {
	scale := func(n int) int {
		n = n * seconds / defaultSeconds
		if n < 1 {
			n = 1
		}
		return n
	}
	s.TrickleRounds = scale(s.TrickleRounds)
	s.BulkRounds = scale(s.BulkRounds)
	s.ReadStmts = scale(s.ReadStmts)
	s.WriteCycles = scale(s.WriteCycles)
	return s
}
