// Command experiments regenerates the paper's tables and figures.
//
// Usage:
//
//	experiments -run all
//	experiments -run fig14 -scale 0.1
//	experiments -run fig16 -trials 5 -parallel 4
//	experiments -run fig10a,fig10b -json out/   # also write out/BENCH_<name>.json
//
// An unknown -run name lists every experiment. Each result prints as
// tables; EXPERIMENTS.md holds the same tables in markdown, and
// `go test ./cmd/experiments -update` regenerates the checked-in
// BENCH_*.json files, PLACEMENT_fabric_leaf.txt, testdata/all.golden and
// those tables.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/report"
	"repro/internal/usecases"
)

func main() {
	code, _ := run(os.Args[1:], os.Stdout, os.Stderr)
	os.Exit(code)
}

// params are the flag values an experiment may read.
type params struct {
	scale           float64
	trials, workers int
	seed            int64
	jsonDir         string
}

// result is an experiment's JSON record, which also yields its tables.
type result interface{ Tables() []report.Table }

// experiment is one registered run; with -json its result lands in
// BENCH_<jsonName>.json.
type experiment struct {
	name, jsonName string
	run            func(params) (result, error)
}

// placementReport is fig-place's stage map of the fabric leaf program.
const placementReport = "PLACEMENT_fabric_leaf.txt"

// registry lists every experiment in report order.
var registry = []experiment{
	{"fig10a", "fig10a", func(params) (result, error) { return experiments.RunFig10a() }},
	{"fig10b", "fig10b", func(params) (result, error) { return experiments.RunFig10b() }},
	{"fig11", "fig11", func(params) (result, error) { return experiments.RunFig11() }},
	{"fig12", "fig12", func(params) (result, error) { return experiments.RunFig12() }},
	{"fig12x", "fig12x", func(params) (result, error) {
		clients := make([]int, 16)
		for i := range clients {
			clients[i] = i + 1
		}
		return experiments.RunFig12x(clients, 10*time.Millisecond)
	}},
	{"fig13", "fig13", func(params) (result, error) { return experiments.RunFig13() }},
	{"table1", "table1", func(params) (result, error) {
		rows, err := usecases.Table1()
		return experiments.Table1Rows(rows), err
	}},
	{"fig14", "fig14", func(p params) (result, error) { return experiments.RunFig14(p.scale, p.seed) }},
	{"fig15", "fig15", func(p params) (result, error) { return experiments.RunFig15(p.seed) }},
	{"fig16", "fig16", func(p params) (result, error) { return experiments.RunFig16(p.trials, p.workers) }},
	{"recirc", "recirc", func(params) (result, error) { return experiments.RunRecirculation() }},
	{"freshness", "freshness", func(params) (result, error) { return experiments.RunFreshness() }},
	{"ablations", "ablations", func(params) (result, error) { return experiments.RunAblations() }},
	{"faults", "faults", func(p params) (result, error) { return experiments.RunFaultSweep(p.seed) }},
	{"fig-takeover", "takeover", func(p params) (result, error) { return experiments.RunTakeover(p.seed) }},
	{"fig-ctlchan", "ctlchan", func(p params) (result, error) { return experiments.RunCtlchan(p.seed) }},
	{"fig-fabric", "fabric", func(p params) (result, error) { return experiments.RunFabric(p.seed, p.workers) }},
	{"fig-reroute", "reroute", func(p params) (result, error) { return experiments.RunReroute(p.seed, p.workers) }},
	{"fig-place", "place", func(p params) (result, error) {
		res, err := experiments.RunPlacement()
		if err == nil && p.jsonDir != "" {
			err = os.WriteFile(filepath.Join(p.jsonDir, placementReport), []byte(res.LeafReport), 0o644)
		}
		return res, err
	}},
}

// run is the command. It returns the exit code — 0 on success, 1 if an
// experiment failed, 2 for a usage error: a flag that does not parse or
// is out of range, or a -run name that is not an experiment (nothing runs
// in that case) — and each successful experiment's result by name.
func run(args []string, stdout, stderr io.Writer) (int, map[string]result) {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	fs.SetOutput(stderr)
	runList := fs.String("run", "all", "comma-separated experiments, or all (an unknown name lists the valid ones)")
	var p params
	fs.Float64Var(&p.scale, "scale", 0.05, "fig14 trace scale in (0,1] relative to one full CAIDA block (8.9M packets)")
	fs.IntVar(&p.trials, "trials", 5, "fig16 trials per parameter point (at least 1)")
	fs.IntVar(&p.workers, "parallel", runtime.GOMAXPROCS(0), "max simulation trials in flight at once, at least 1 (1 = serial; results are identical at any value)")
	fs.Int64Var(&p.seed, "seed", 1, "random seed")
	fs.StringVar(&p.jsonDir, "json", "", "directory to write BENCH_<name>.json machine-readable results into (created if missing)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0, nil
		}
		return 2, nil
	}
	if p.trials < 1 {
		fmt.Fprintf(stderr, "experiments: -trials %d, want at least 1\n", p.trials)
		return 2, nil
	}
	if !(p.scale > 0 && p.scale <= 1) {
		fmt.Fprintf(stderr, "experiments: -scale %v out of (0,1]\n", p.scale)
		return 2, nil
	}
	if p.workers < 1 {
		fmt.Fprintf(stderr, "experiments: -parallel %d, want at least 1\n", p.workers)
		return 2, nil
	}

	valid := []string{"all"}
	known := map[string]bool{"all": true}
	for _, e := range registry {
		valid = append(valid, e.name)
		known[e.name] = true
	}
	want := map[string]bool{}
	var unknown []string
	for _, name := range strings.Split(*runList, ",") {
		name = strings.TrimSpace(name)
		if !known[name] {
			unknown = append(unknown, fmt.Sprintf("%q", name))
		}
		want[name] = true
	}
	if len(unknown) > 0 {
		fmt.Fprintf(stderr, "experiments: unknown experiment %s; valid names: %s\n",
			strings.Join(unknown, ", "), strings.Join(valid, ", "))
		return 2, nil
	}

	if p.jsonDir != "" {
		if err := os.MkdirAll(p.jsonDir, 0o755); err != nil {
			fmt.Fprintf(stderr, "json dir: %v\n", err)
			return 1, nil
		}
	}
	results := map[string]result{}
	failed := false
	for _, e := range registry {
		if !want["all"] && !want[e.name] {
			continue
		}
		res, err := e.run(p)
		if err != nil {
			fmt.Fprintf(stderr, "%s: %v\n", e.name, err)
			failed = true
			continue
		}
		results[e.name] = res
		fmt.Fprintln(stdout, report.Text(res.Tables()))
		if p.jsonDir == "" {
			continue
		}
		buf, err := json.MarshalIndent(res, "", "  ")
		if err == nil {
			err = os.WriteFile(filepath.Join(p.jsonDir, "BENCH_"+e.jsonName+".json"), append(buf, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintf(stderr, "%s: %v\n", e.name, err)
			failed = true
		}
	}
	if failed {
		return 1, results
	}
	return 0, results
}
