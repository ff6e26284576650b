// Command bench is the repository's wall-clock benchmark: four workloads,
// the end-to-end metrics BENCHMARK.json bounds, and a per-layer breakdown
// measured from outside the engine. See README.md in this directory.
//
//	go run ./bench --workload serve_read --seed 3 --seconds 12 --trace 0
//	go run ./bench                      # every workload, untraced then traced
//	go run ./bench -smoke               # the same at toy sizes, in seconds
//	go run ./bench -compare old.jsonl new.jsonl
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
)

// The benchmark generates its load from this one process on two cores, with
// at most two client goroutines; engines run with RefreshWorkers: 2.
const procs = 2

func main() {
	workload := flag.String("workload", "", "run one workload and print the driver's result line; empty runs all of them")
	seed := flag.Int64("seed", 1, "seed of every generated key, row and statement mix")
	seconds := flag.Int("seconds", defaultSeconds, "run length the operation counts are scaled to")
	trace := flag.Int("trace", 0, "with -workload: 0 prints the end-to-end metrics, 1 the per-layer metrics")
	smoke := flag.Bool("smoke", false, "toy sizes: exercises every path and metric in seconds")
	out := flag.String("out", filepath.Join(".bench_build", "out"), "directory for trace-<workload>.json and scratch data")
	compare := flag.Bool("compare", false, "compare two result files: -compare old.jsonl new.jsonl")
	flag.Parse()
	runtime.GOMAXPROCS(procs)

	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("usage: -compare old.jsonl new.jsonl"))
		}
		if err := compareFiles(os.Stdout, "BENCHMARK.json", flag.Arg(0), flag.Arg(1)); err != nil {
			fatal(err)
		}
		return
	}
	if *seconds < 1 {
		fatal(fmt.Errorf("-seconds must be at least 1"))
	}
	sz := fullSizes
	if *smoke {
		sz = smokeSizes
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fatal(err)
	}
	v := &env{ctx: context.Background(), sz: sz.scaled(*seconds), seed: *seed,
		scratch: &scratch{root: filepath.Join(*out, fmt.Sprintf("scratch-%d", os.Getpid()))}}
	var ok bool
	var err error
	if *workload != "" {
		ok, err = runOne(v, *workload, *trace == 1, *out)
	} else {
		ok, err = runAll(v, *out)
	}
	v.scratch.cleanup()
	if err != nil {
		fatal(err)
	}
	if !ok {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

// driverResult is the one line the driver reads: exactly these keys, and in
// metrics exactly value and unit.
type driverResult struct {
	Correct   bool                    `json:"correct"`
	Attempted int                     `json:"attempted"`
	Failed    int                     `json:"failed"`
	Metrics   map[string]driverMetric `json:"metrics"`
}

type driverMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runOne runs one workload in one mode and prints the driver's result line
// last on standard output. Per-operation digests go to standard error.
func runOne(v *env, name string, traced bool, outDir string) (bool, error) {
	var metrics map[string]metric
	var col *collector
	if traced {
		m, c, err := runTraced(v, name, outDir)
		if err != nil {
			return false, err
		}
		metrics, col = m, c
	} else {
		o, err := runWorkload(v, name)
		if err != nil {
			return false, err
		}
		metrics, col = o.e2e(headline[name][0], headline[name][1]), o.collector
		digest, _ := json.Marshal(map[string]any{"workload": name, "ops": o.digest(), "extra": o.extra})
		fmt.Fprintln(os.Stderr, string(digest))
	}
	for _, e := range col.errs {
		fmt.Fprintln(os.Stderr, "bench: failed:", e)
	}
	res := driverResult{Correct: col.failed == 0, Attempted: col.attempted, Failed: col.failed,
		Metrics: map[string]driverMetric{}}
	for k, m := range metrics {
		res.Metrics[k] = driverMetric{m.Value, m.Unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return false, err
	}
	fmt.Println(string(line))
	return res.Correct, nil
}

// digest summarises every operation kind the run measured.
func (o *outcome) digest() map[string]summary {
	out := map[string]summary{}
	for k, s := range o.lat {
		out[k] = summarize(s)
	}
	return out
}

// envelope is the result of a whole-suite run: one JSON object per run, so a
// file of several runs (one per line) feeds -compare.
type envelope struct {
	Commit     string `json:"commit"`
	Go         string `json:"go"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NProc      int    `json:"nproc"`
	Seed       int64  `json:"seed"`
	Sizes      sizes  `json:"sizes"`
	Durability string `json:"durability"`

	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`

	E2E    map[string]map[string]metric  `json:"e2e"`
	Ops    map[string]map[string]summary `json:"ops"`
	Extra  map[string]map[string]metric  `json:"extra"`
	Layers map[string]map[string]metric  `json:"layers"`
}

// runAll runs every workload untraced, then traced, and prints one envelope.
func runAll(v *env, outDir string) (bool, error) {
	env := envelope{
		Commit: commit(), Go: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), NProc: procs,
		Seed: v.seed, Sizes: v.sz,
		Durability: "process-kill level only: WAL.Append does not fsync and crash images are read through the OS cache; latencies are this sandbox's, not a device's",
		E2E:        map[string]map[string]metric{}, Ops: map[string]map[string]summary{},
		Extra: map[string]map[string]metric{}, Layers: map[string]map[string]metric{},
	}
	var errs []string
	for _, name := range workloadNames {
		o, err := runWorkload(v, name)
		if err != nil {
			return false, fmt.Errorf("%s: %w", name, err)
		}
		env.E2E[name] = o.e2e(headline[name][0], headline[name][1])
		env.Ops[name] = o.digest()
		env.Extra[name] = o.extra
		layers, col, err := runTraced(v, name, outDir)
		if err != nil {
			return false, fmt.Errorf("%s (traced): %w", name, err)
		}
		env.Layers[name] = layers
		env.Attempted += o.attempted + col.attempted
		env.Failed += o.failed + col.failed
		errs = append(append(errs, o.errs...), col.errs...)
	}
	env.Correct = env.Failed == 0
	for _, e := range errs {
		fmt.Fprintln(os.Stderr, "bench: failed:", e)
	}
	line, err := json.Marshal(env)
	if err != nil {
		return false, err
	}
	fmt.Println(string(line))
	return env.Correct, nil
}

// commit is the VCS revision the binary was built from, when the toolchain
// stamped one.
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}
