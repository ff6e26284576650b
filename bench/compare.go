package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"text/tabwriter"
)

// benchmarkSpec is the part of BENCHMARK.json -compare needs.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// quartiles are the first and third quartile as Python's
// statistics.quantiles(values, n=4) gives them (the driver's definition).
func quartiles(v []float64) (q1, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return s[0], s[0]
	}
	cut := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		j = max(1, min(j, n-1))
		d := float64(i*m - j*4)
		return (s[j-1]*(4-d) + s[j]*d) / 4
	}
	return cut(1), cut(3)
}

// readRuns loads a result file: one whole-suite envelope per line.
func readRuns(path string) ([]envelope, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var runs []envelope
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 64<<20)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var e envelope
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		runs = append(runs, e)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(runs) == 0 {
		return nil, fmt.Errorf("%s holds no runs", path)
	}
	return runs, nil
}

// compareFiles prints one row per (workload, end-to-end metric): both
// medians, the ratio with its base, and a verdict. It reports; it gates
// nothing. "unresolved" means one side's run-to-run spread (interquartile
// range over median) is wider than the metric's bound, so the runs cannot
// tell a regression of that size from noise.
func compareFiles(w io.Writer, specPath, oldPath, newPath string) error {
	raw, err := os.ReadFile(specPath)
	if err != nil {
		return err
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		return fmt.Errorf("%s: %w", specPath, err)
	}
	oldRuns, err := readRuns(oldPath)
	if err != nil {
		return err
	}
	newRuns, err := readRuns(newPath)
	if err != nil {
		return err
	}
	values := func(runs []envelope, workload, metric string) []float64 {
		var out []float64
		for _, r := range runs {
			if m, ok := r.E2E[workload][metric]; ok {
				out = append(out, m.Value)
			}
		}
		return out
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintf(tw, "workload\tmetric\tunit\told median (n=%d)\tnew median (n=%d)\tnew/old\tbound\tverdict\n", len(oldRuns), len(newRuns))
	for _, wl := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			ov, nv := values(oldRuns, wl.Name, m.Name), values(newRuns, wl.Name, m.Name)
			if len(ov) == 0 || len(nv) == 0 {
				fmt.Fprintf(tw, "%s\t%s\t%s\t-\t-\t-\t%.2f\tmissing\n", wl.Name, m.Name, m.Unit, m.Bound)
				continue
			}
			om, nm := medianOf(ov), medianOf(nv)
			oq1, oq3 := quartiles(ov)
			nq1, nq3 := quartiles(nv)
			verdict := "ok"
			worse := nm > om*(1+m.Bound)
			if m.Better == "higher" {
				worse = nm < om*(1-m.Bound)
			}
			switch {
			case (oq3-oq1)/om > m.Bound || (nq3-nq1)/nm > m.Bound:
				verdict = "unresolved"
			case worse:
				verdict = "worse"
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.4g\t%.4g\t%.3f of %.4g\t%.2f\t%s\n",
				wl.Name, m.Name, m.Unit, om, nm, nm/om, om, m.Bound, verdict)
		}
	}
	return tw.Flush()
}
