// Command dtbench regenerates every figure and table of the paper's
// evaluation. Run a single experiment with -exp, or everything with
// -exp all:
//
//	dtbench -exp fig4        # lag sawtooth series
//	dtbench -exp fig5        # target-lag distribution
//	dtbench -exp fig6        # operator frequency
//	dtbench -exp actions     # refresh action mix (§6.3)
//	dtbench -exp changevol   # changed-row fraction mix (§6.3)
//	dtbench -exp cost        # incremental vs full crossover (§3.3.2)
//	dtbench -exp init        # initialization strategy (§3.1.2)
//	dtbench -exp skips       # skip-vs-queue ablation (§3.3.3)
//	dtbench -exp periods     # canonical period alignment (§5.2)
//	dtbench -exp outerjoin   # outer-join derivative ablation (§5.5.1)
//	dtbench -exp window      # window derivative ablation (§5.5.1)
//	dtbench -exp fig1 | fig2 # isolation DSGs (§4)
//	dtbench -exp oracle      # randomized DVS property test (§6.1)
//
// Every experiment runs on a virtual clock, so its output is
// deterministic; go run ./bench measures wall-clock performance.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"dyntables"
	"dyntables/internal/core"
	"dyntables/internal/isolation"
	"dyntables/internal/workload"
)

// order lists every experiment in the order -exp all runs them.
var order = []string{"fig1", "fig2", "fig4", "fig5", "fig6", "actions",
	"changevol", "cost", "init", "skips", "periods", "outerjoin", "window", "oracle"}

func main() {
	exp := flag.String("exp", "all", "experiment to run ("+strings.Join(order, ",")+",all)")
	dts := flag.Int("dts", dyntables.DefaultFleetConfig.DTs, "fleet size for fleet experiments")
	hours := flag.Int("hours", dyntables.DefaultFleetConfig.Hours, "simulated hours for fleet experiments")
	seed := flag.Int64("seed", 1, "random seed")
	flag.Parse()

	runners := map[string]func() error{
		"fig1":      fig1,
		"fig2":      fig2,
		"fig4":      fig4,
		"fig5":      func() error { return fleetFigures(*dts, *hours, *seed, "fig5") },
		"fig6":      func() error { return fleetFigures(*dts, *hours, *seed, "fig6") },
		"actions":   func() error { return fleetFigures(*dts, *hours, *seed, "actions") },
		"changevol": func() error { return fleetFigures(*dts, *hours, *seed, "changevol") },
		"cost":      cost,
		"init":      initStrategy,
		"skips":     skips,
		"periods":   periods,
		"outerjoin": outerjoin,
		"window":    window,
		"oracle":    func() error { return oracle(*seed) },
	}

	if *exp == "all" {
		for _, name := range order {
			fmt.Printf("\n================ %s ================\n", name)
			if err := runners[name](); err != nil {
				log.Fatalf("%s: %v", name, err)
			}
		}
		return
	}
	runner, ok := runners[*exp]
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *exp)
		os.Exit(2)
	}
	if err := runner(); err != nil {
		log.Fatal(err)
	}
}

func fig1() error {
	h := isolation.NewHistory()
	steps := []error{
		h.Write(1, "x", 1), nil,
		h.Read(3, "x", 1), h.Write(3, "y", 3), nil,
		h.Write(2, "x", 2), nil,
		h.Read(4, "x", 2), h.Write(4, "y", 4), nil,
		h.Read(5, "y", 3), h.Read(5, "x", 2),
	}
	for _, err := range steps {
		if err != nil {
			return err
		}
	}
	for _, txn := range []int{1, 2, 3, 4, 5} {
		h.Commit(txn)
	}
	fmt.Println("Figure 1 — persisted table semantics (refreshes as transactions)")
	fmt.Println("history:", h)
	fmt.Print("DSG:\n", h.BuildDSG())
	p := h.Analyze()
	fmt.Printf("phenomena: G0=%v G1=%v G2=%v G-single=%v -> %s\n",
		p.G0, p.G1(), p.G2, p.GSingle, p.Level())
	fmt.Println("paper: 'the DSG ... reveals that this history is, in fact, serializable' — the read skew is masked")
	return nil
}

func fig2() error {
	h := isolation.NewHistory()
	if err := h.Write(1, "x", 1); err != nil {
		return err
	}
	h.Commit(1)
	if err := h.Derive(3, "y", 3, isolation.V("x", 1)); err != nil {
		return err
	}
	h.Commit(3)
	if err := h.Write(2, "x", 2); err != nil {
		return err
	}
	h.Commit(2)
	if err := h.Derive(4, "y", 4, isolation.V("x", 2)); err != nil {
		return err
	}
	h.Commit(4)
	if err := h.Read(5, "y", 3); err != nil {
		return err
	}
	if err := h.Read(5, "x", 2); err != nil {
		return err
	}
	h.Commit(5)

	fmt.Println("Figure 2 — delayed view semantics (refreshes as derivations)")
	fmt.Println("history:", h)
	fmt.Print("DSG:\n", h.BuildDSG())
	p := h.Analyze()
	fmt.Printf("phenomena: G0=%v G1=%v G2=%v G-single=%v -> %s\n",
		p.G0, p.G1(), p.G2, p.GSingle, p.Level())
	fmt.Println("paper: 'a cycle ... exhibiting phenomenon G2 (and G-single), revealing the read skew'")
	return nil
}

func fig4() error {
	res, err := dyntables.RunLagSawtooth(10*time.Minute, 2)
	if err != nil {
		return err
	}
	fmt.Printf("Figure 4 — lag sawtooth (target lag %v, chosen period %v)\n", res.TargetLag, res.Period)
	fmt.Println("commit_time           data_ts     peak_lag  trough_lag")
	for _, p := range res.Points {
		fmt.Printf("%-21s %-11s %-9s %s\n",
			p.At.Format("15:04:05"), p.DataTS.Format("15:04:05"),
			p.Peak.Truncate(time.Second), p.Trough.Truncate(time.Second))
	}
	return nil
}

func fleetFigures(dts, hours int, seed int64, which string) error {
	cfg := dyntables.DefaultFleetConfig
	cfg.DTs, cfg.Hours, cfg.Seed = dts, hours, seed
	res, err := dyntables.RunFleet(cfg)
	if err != nil {
		return err
	}
	switch which {
	case "fig5":
		fmt.Printf("Figure 5 — target lag distribution (%d DTs)\n", res.Created)
		buckets := []struct {
			name   string
			lo, hi time.Duration
		}{
			{"< 5 min (streaming)", 0, 5 * time.Minute},
			{"5 min – 1 h", 5 * time.Minute, time.Hour},
			{"1 h – 16 h", time.Hour, 16 * time.Hour},
			{">= 16 h (batch)", 16 * time.Hour, 1 << 62},
		}
		for _, b := range buckets {
			share := workload.LagShare(res.Lags, b.lo, b.hi)
			fmt.Printf("  %-22s %5.1f%%  %s\n", b.name, share*100, bar(share))
		}
		fmt.Println("paper: ~20% < 5 min, 55% in between, >25% >= 16 h")
	case "fig6":
		fmt.Printf("Figure 6 — operator frequency in %d incremental DT definitions\n", res.Created)
		for _, line := range dyntables.SortedOperatorCounts(res.OperatorCounts) {
			fmt.Println("  ", line)
		}
		fmt.Printf("  incremental-mode share: %.0f%% (paper: ~70%%)\n", res.IncrementalModeShare*100)
	case "actions":
		fmt.Printf("§6.3 — refresh action mix over %d DTs, %dh simulated\n", res.Created, hours)
		total := 0
		for _, n := range res.ActionCounts {
			total += n
		}
		for _, a := range []core.RefreshAction{core.ActionNoData, core.ActionIncremental,
			core.ActionFull, core.ActionReinitialize, core.ActionInitialize, core.ActionSkip} {
			share := res.ActionShare(a)
			fmt.Printf("  %-13s %6d  %5.1f%%  %s\n", a, res.ActionCounts[a], share*100, bar(share))
		}
		fmt.Printf("  total refreshes: %d, warehouse credits: %.3f\n", total, res.Credits)
		fmt.Println("paper: 'More than 90% of refreshes have no data'")
	case "changevol":
		fmt.Printf("§6.3 — changed-row fraction of %d incremental refreshes\n", len(res.ChangeFractions))
		buckets := []struct {
			name   string
			lo, hi float64
		}{
			{"< 1%", 0, 0.01},
			{"1% – 10%", 0.01, 0.10},
			{"> 10%", 0.10, 1e18},
		}
		for _, b := range buckets {
			share := res.ChangeFractionShare(b.lo, b.hi)
			fmt.Printf("  %-9s %5.1f%%  %s\n", b.name, share*100, bar(share))
		}
		fmt.Println("paper: 67% < 1%, 21% > 10%")
	}
	return nil
}

func cost() error {
	points, err := dyntables.RunCrossover(4000, []float64{0.001, 0.005, 0.01, 0.05, 0.10, 0.25, 0.50, 1.0})
	if err != nil {
		return err
	}
	fmt.Println("§3.3.2 — incremental vs full refresh work (4000-row source, join query)")
	fmt.Println("churn     incr_work  full_work  incr_dur  full_dur  winner")
	for _, p := range points {
		winner := "incremental"
		if p.IncrementalWork >= p.FullWork {
			winner = "full"
		}
		fmt.Printf("%6.1f%%  %9d  %9d  %8s  %8s  %s\n",
			p.ChurnFraction*100, p.IncrementalWork, p.FullWork,
			p.IncrementalDuration.Truncate(time.Millisecond),
			p.FullDuration.Truncate(time.Millisecond), winner)
	}
	fmt.Println("paper: variable costs scale linearly with changed data; full refreshes win at high churn")
	return nil
}

func initStrategy() error {
	fmt.Println("§3.1.2 — initialization refreshes for DT chains created in dependency order")
	fmt.Println("depth  reuse_ts  naive_fresh_ts")
	for _, depth := range []int{2, 4, 6, 8} {
		res, err := dyntables.RunInitStrategy(depth)
		if err != nil {
			return err
		}
		fmt.Printf("%5d  %8d  %14d\n", res.Depth, res.ReuseCount, res.NaiveCount)
	}
	fmt.Println("paper: 'the number of refreshes increases quadratically with the depth of the graph'")
	return nil
}

func skips() error {
	res, err := dyntables.RunSkipExperiment(2)
	if err != nil {
		return err
	}
	fmt.Println("§3.3.3 — overloaded DT (refresh duration > period), 2h simulated")
	fmt.Printf("  with skips:    refreshes=%-3d skips=%-3d billed=%-10s final_lag=%s dvs=%v\n",
		res.WithSkips.Refreshes, res.WithSkips.Skips,
		res.WithSkips.Billed.Truncate(time.Second), res.WithSkips.FinalLag.Truncate(time.Second),
		res.WithSkips.DVSHolds)
	fmt.Printf("  without skips: refreshes=%-3d skips=%-3d billed=%-10s final_lag=%s dvs=%v\n",
		res.WithoutSkips.Refreshes, res.WithoutSkips.Skips,
		res.WithoutSkips.Billed.Truncate(time.Second), res.WithoutSkips.FinalLag.Truncate(time.Second),
		res.WithoutSkips.DVSHolds)
	fmt.Println("paper: 'skipping a refresh reduces the total amount of work by eliminating the fixed costs'")
	return nil
}

func periods() error {
	res, err := dyntables.RunAlignment(3)
	if err != nil {
		return err
	}
	fmt.Println("§5.2 — data timestamp alignment (7m upstream, 11m downstream, 3h simulated)")
	fmt.Printf("  canonical 48·2^n periods: %d scheduled refreshes, %d upstream repairs\n",
		res.CanonicalRefreshes, res.CanonicalExtraRefreshes)
	fmt.Printf("  exact periods:            %d scheduled refreshes, %d upstream repairs\n",
		res.ExactRefreshes, res.ExactExtraRefreshes)
	fmt.Println("paper: powers-of-two periods with a shared phase guarantee aligned data timestamps")
	return nil
}

func outerjoin() error {
	points, err := dyntables.RunOuterJoinAblation(5)
	if err != nil {
		return err
	}
	fmt.Println("§5.5.1 — outer-join derivative: subplan differentiations per refresh")
	fmt.Println("left_joins  direct  expanded")
	for _, p := range points {
		fmt.Printf("%10d  %6d  %8d\n", p.Joins, p.DirectSubplans, p.ExpandedSubplans)
	}
	fmt.Println("paper: 'duplication grows exponentially with the number of outer joins'")
	return nil
}

func window() error {
	fmt.Println("§5.5.1 — window derivative: partitions recomputed per refresh")
	fmt.Println("partitions  touched  changed_strategy  full_recompute")
	for _, n := range []int{16, 64, 256} {
		res, err := dyntables.RunWindowAblation(n, 2)
		if err != nil {
			return err
		}
		fmt.Printf("%10d  %7d  %16d  %14d\n",
			res.Partitions, res.TouchedPartitions, res.ChangedRecomputed, res.FullRecomputed)
	}
	fmt.Println("paper: 'applying the window function to all partitions that have changed'")
	return nil
}

func oracle(seed int64) error {
	res, err := dyntables.RunDVSOracle(20, 5, seed)
	if err != nil {
		return err
	}
	fmt.Printf("§6.1 — randomized DVS oracle: %d DTs × %d rounds = %d checks\n",
		res.DTsChecked, res.Rounds, res.Checks)
	if len(res.Violations) == 0 {
		fmt.Println("  no violations: every DT equals its defining query at its data timestamp")
	} else {
		for _, v := range res.Violations {
			fmt.Println("  VIOLATION:", v)
		}
	}
	return nil
}

func bar(share float64) string {
	n := int(share * 40)
	out := ""
	for i := 0; i < n; i++ {
		out += "█"
	}
	return out
}
