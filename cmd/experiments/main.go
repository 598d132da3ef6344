// Command experiments regenerates the paper's tables and figures.
//
// Usage:
//
//	experiments -run all
//	experiments -run fig10a,fig10b,fig11,fig12,fig12x,fig13,table1,fig14,fig15,fig16,ablations
//	experiments -run fig14 -scale 0.1
//	experiments -run fig16 -trials 5 -parallel 4
//	experiments -run fig10a,fig10b -json out/   # also write out/BENCH_<name>.json
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
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// experiment is one runnable step: it returns the human-readable report
// plus a structured value which, with -json, lands in
// BENCH_<jsonName>.json.
type experiment struct {
	name, jsonName string
	fn             func() (string, any, error)
}

// run is the command: 0 on success, 1 if an experiment failed, 2 for a
// usage error — a flag that does not parse, or a -run name that is not
// an experiment (nothing runs in that case).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	fs.SetOutput(stderr)
	runList := fs.String("run", "all", "comma-separated experiments, or all (an unknown name lists the valid ones)")
	scale := fs.Float64("scale", 0.05, "fig14 trace scale relative to one full CAIDA block (8.9M packets)")
	trials := fs.Int("trials", 5, "fig16 trials per parameter point")
	parallel := fs.Int("parallel", runtime.GOMAXPROCS(0), "max simulation trials in flight at once (1 = serial; results are identical at any value)")
	seed := fs.Int64("seed", 1, "random seed")
	jsonDir := fs.String("json", "", "directory to write BENCH_<name>.json machine-readable results into (created if missing)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	var steps []experiment
	stepNamed := func(name, jsonName string, fn func() (string, any, error)) {
		steps = append(steps, experiment{name, jsonName, fn})
	}
	step := func(name string, fn func() (string, any, error)) { stepNamed(name, name, fn) }

	step("fig10a", func() (string, any, error) {
		rows, err := experiments.RunFig10a()
		if err != nil {
			return "", nil, err
		}
		return experiments.FormatFig10a(rows), rows, nil
	})
	step("fig10b", func() (string, any, error) {
		rows, err := experiments.RunFig10b()
		if err != nil {
			return "", nil, err
		}
		return experiments.FormatFig10b(rows), rows, nil
	})
	step("fig11", func() (string, any, error) {
		rows, err := experiments.RunFig11()
		if err != nil {
			return "", nil, err
		}
		return experiments.FormatFig11(rows), rows, nil
	})
	step("fig12", func() (string, any, error) {
		res, err := experiments.RunFig12()
		if err != nil {
			return "", nil, err
		}
		return experiments.FormatFig12(res), res, nil
	})
	step("fig12x", func() (string, any, error) {
		clients := make([]int, 16)
		for i := range clients {
			clients[i] = i + 1
		}
		res, err := experiments.RunFig12x(clients, 10*time.Millisecond)
		if err != nil {
			return "", nil, err
		}
		return experiments.FormatFig12x(res), res, nil
	})
	step("fig13", func() (string, any, error) {
		a, err := experiments.RunFig13a(32)
		if err != nil {
			return "", nil, err
		}
		b, err := experiments.RunFig13b(4)
		if err != nil {
			return "", nil, err
		}
		return experiments.FormatFig13(a, b), map[string]any{"a": a, "b": b}, nil
	})
	step("table1", func() (string, any, error) {
		out, err := experiments.RunTable1()
		return out, out, err
	})
	step("fig14", func() (string, any, error) {
		res, err := experiments.RunFig14(*scale, *seed)
		if err != nil {
			return "", nil, err
		}
		return experiments.FormatFig14(res), res, nil
	})
	step("fig15", func() (string, any, error) {
		res, err := experiments.RunFig15(*seed)
		if err != nil {
			return "", nil, err
		}
		return experiments.FormatFig15(res), res, nil
	})
	step("fig16", func() (string, any, error) {
		res, err := experiments.RunFig16Parallel(*trials, *parallel)
		if err != nil {
			return "", nil, err
		}
		return experiments.FormatFig16(res), res, nil
	})
	step("recirc", func() (string, any, error) {
		rows, err := experiments.RunRecirculation()
		if err != nil {
			return "", nil, err
		}
		return experiments.FormatRecirculation(rows), rows, nil
	})
	step("freshness", func() (string, any, error) {
		res, err := experiments.RunFreshness()
		if err != nil {
			return "", nil, err
		}
		return experiments.FormatFreshness(res), res, nil
	})
	step("ablations", func() (string, any, error) {
		res, err := experiments.RunAblations()
		if err != nil {
			return "", nil, err
		}
		return experiments.FormatAblations(res), res, nil
	})
	step("faults", func() (string, any, error) {
		rows, err := experiments.RunFaultSweep(*seed)
		if err != nil {
			return "", nil, err
		}
		return experiments.FormatFaultSweep(rows), rows, nil
	})
	stepNamed("fig-takeover", "takeover", func() (string, any, error) {
		res, err := experiments.RunTakeover(*seed)
		if err != nil {
			return "", nil, err
		}
		return experiments.FormatTakeover(res), res, nil
	})
	stepNamed("fig-ctlchan", "ctlchan", func() (string, any, error) {
		res, err := experiments.RunCtlchan(*seed)
		if err != nil {
			return "", nil, err
		}
		return experiments.FormatCtlchan(res), res, nil
	})
	stepNamed("fig-fabric", "fabric", func() (string, any, error) {
		res, err := experiments.RunFabric(*seed, *parallel)
		if err != nil {
			return "", nil, err
		}
		return experiments.FormatFabric(res), res, nil
	})
	stepNamed("fig-reroute", "reroute", func() (string, any, error) {
		res, err := experiments.RunReroute(*seed, *parallel)
		if err != nil {
			return "", nil, err
		}
		return experiments.FormatReroute(res), res, nil
	})
	stepNamed("fig-place", "place", func() (string, any, error) {
		res, err := experiments.RunPlacement()
		if err != nil {
			return "", nil, err
		}
		if *jsonDir != "" {
			path := filepath.Join(*jsonDir, "PLACEMENT_fabric_leaf.txt")
			if err := os.WriteFile(path, []byte(res.LeafReport), 0o644); err != nil {
				return "", nil, err
			}
		}
		return experiments.FormatPlacement(res), res, nil
	})

	valid := []string{"all"}
	known := map[string]bool{"all": true}
	for _, st := range steps {
		valid = append(valid, st.name)
		known[st.name] = true
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
		return 2
	}
	all := want["all"]

	if *jsonDir != "" {
		if err := os.MkdirAll(*jsonDir, 0o755); err != nil {
			fmt.Fprintf(stderr, "json dir: %v\n", err)
			return 1
		}
	}
	failed := false
	for _, st := range steps {
		if !all && !want[st.name] {
			continue
		}
		out, val, err := st.fn()
		if err != nil {
			fmt.Fprintf(stderr, "%s: %v\n", st.name, err)
			failed = true
			continue
		}
		fmt.Fprintln(stdout, out)
		if *jsonDir == "" || val == nil {
			continue
		}
		buf, err := json.MarshalIndent(val, "", "  ")
		if err != nil {
			fmt.Fprintf(stderr, "%s: marshal: %v\n", st.name, err)
			failed = true
			continue
		}
		path := filepath.Join(*jsonDir, "BENCH_"+st.jsonName+".json")
		if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
			fmt.Fprintf(stderr, "%s: %v\n", st.name, err)
			failed = true
		}
	}
	if failed {
		return 1
	}
	return 0
}
