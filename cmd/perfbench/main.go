// Command perfbench runs the hot-path microbenchmark suite and manages
// the checked-in performance baseline. It prints the suite as one
// table; with -check the table also holds the baseline and a verdict
// per benchmark.
//
// Regenerate the baseline (after intentional perf-relevant changes):
//
//	perfbench -out BENCH_rmt.json -note "dev laptop, go1.24"
//
// Check the current tree against the baseline (CI runs this: a
// regression beyond the default 2x time tolerance or zero allocation
// tolerance exits 1):
//
//	perfbench -baseline BENCH_rmt.json -check
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/perf"
	"repro/internal/report"
)

func main() {
	out := flag.String("out", "", "write measured metrics to this baseline file")
	baseline := flag.String("baseline", "", "baseline file to compare against")
	check := flag.Bool("check", false, "compare against -baseline and fail on regression")
	tolerance := flag.Float64("tolerance", perf.DefaultOptions().NsTolerance,
		"allowed relative ns/op growth before a time regression is flagged")
	allocTolerance := flag.Int64("alloc-tolerance", perf.DefaultOptions().AllocTolerance,
		"allowed absolute allocs/op growth before an alloc regression is flagged")
	note := flag.String("note", "", "provenance note stored in the baseline")
	flag.Parse()

	if *out == "" && !*check {
		fmt.Fprintln(os.Stderr, "perfbench: nothing to do: pass -out and/or -check (see -h)")
		os.Exit(2)
	}
	var base *perf.Baseline
	if *check {
		if *baseline == "" {
			fmt.Fprintln(os.Stderr, "perfbench: -check requires -baseline")
			os.Exit(2)
		}
		var err error
		if base, err = perf.Load(*baseline); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			os.Exit(1)
		}
	}

	fmt.Fprintf(os.Stderr, "perfbench: running %d benchmarks...\n", len(perf.HotPathBenchmarks()))
	cur := &perf.Baseline{Note: *note, Metrics: perf.Run()}
	if *out != "" {
		if err := cur.Save(*out); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "perfbench: wrote %s\n", *out)
	}
	var regs []perf.Regression
	if base != nil {
		regs = perf.Compare(base, cur, perf.Options{NsTolerance: *tolerance, AllocTolerance: *allocTolerance})
	}
	fmt.Print(report.Text([]report.Table{perf.Table(cur, base, regs)}))
	if len(regs) > 0 {
		os.Exit(1)
	}
}
