package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"

	"repro/internal/stats"
)

// benchmarkJSON is the part of BENCHMARK.json -agree reads.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// runAgree runs two interleaved sets of n runs per workload, each run a
// fresh process with its own seed (the same seeds in both sets), and
// prints for every end-to-end metric both medians, both quartile spreads
// and whether they stay within the bound BENCHMARK.json gives the metric:
// each spread within the bound (setup_s excepted, as the acceptance check
// excepts it) and the second median no worse than the first by more than it.
func runAgree(n int, only string, seconds float64, jsonPath string) error {
	raw, err := os.ReadFile(jsonPath)
	if err != nil {
		return err
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(raw, &bj); err != nil {
		return fmt.Errorf("%s: %w", jsonPath, err)
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	failed := false
	for _, wl := range bj.Workloads {
		if only != "" && wl.Name != only {
			continue
		}
		var sets [2]map[string][]float64
		var counts [2][]string
		for k := range sets {
			sets[k] = make(map[string][]float64)
		}
		for i := 0; i < n; i++ {
			for k := range sets {
				rep, err := runChild(self, wl.Name, int64(i+1), seconds)
				if err != nil {
					return err
				}
				for name, mv := range rep.Metrics {
					sets[k][name] = append(sets[k][name], mv.Value)
				}
				counts[k] = append(counts[k], fmt.Sprintf("%d/%d", rep.Failed, rep.Attempted))
			}
		}
		fmt.Printf("%s: %d runs per set, seeds 1..%d, %gs\n", wl.Name, n, n, seconds)
		fmt.Printf("  %-20s %14s %8s %14s %8s %7s  %s\n", "metric", "median A", "IQR A", "median B", "IQR B", "bound", "verdict")
		for _, m := range bj.EndToEnd {
			a, b := sets[0][m.Name], sets[1][m.Name]
			if len(a) != n || len(b) != n {
				return fmt.Errorf("%s: metric %s missing from a run", wl.Name, m.Name)
			}
			medA, iqrA := spread(a)
			medB, iqrB := spread(b)
			worse := (medB - medA) / medA
			if m.Better == "higher" {
				worse = -worse
			}
			verdict := "ok"
			if worse > m.Bound {
				verdict = fmt.Sprintf("FAIL: B is %.2f%% worse", 100*worse)
			} else if m.Name != "setup_s" && (iqrA > m.Bound || iqrB > m.Bound) {
				verdict = "FAIL: spread over bound"
			}
			if verdict != "ok" {
				failed = true
			}
			fmt.Printf("  %-20s %14.6g %7.2f%% %14.6g %7.2f%% %6.1f%%  %s\n", m.Name, medA, 100*iqrA, medB, 100*iqrB, 100*m.Bound, verdict)
		}
		same := strings.Join(counts[0], " ") == strings.Join(counts[1], " ")
		fmt.Printf("  failed/attempted per seed: %s (sets identical: %v)\n", strings.Join(counts[0], " "), same)
		if !same {
			failed = true
		}
	}
	if failed {
		return fmt.Errorf("the two sets disagree beyond a bound")
	}
	return nil
}

// spread returns the median of xs and its quartile spread as a share of
// the median.
func spread(xs []float64) (med, iqr float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	med = stats.Median(s)
	if len(s) < 2 || med == 0 {
		return med, 0
	}
	q1, q3 := quartiles(s)
	return med, (q3 - q1) / med
}

// runChild runs one untraced benchmark run in a child process, so memory
// and cold set-up are a fresh process's, and parses its last line.
func runChild(self, workload string, seed int64, seconds float64) (*report, error) {
	cmd := exec.Command(self, "--workload", workload, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", "0")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s seed %d: %w", workload, seed, err)
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var rep report
	if err := json.Unmarshal(lines[len(lines)-1], &rep); err != nil {
		return nil, fmt.Errorf("%s seed %d: last line is not a result: %w", workload, seed, err)
	}
	return &rep, nil
}
