package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// runSteady runs the workload n times with consecutive seeds, each in its
// own process, and prints every metric's median, quartiles and spread —
// the interquartile range as a share of the median — against the bound
// BENCHMARK.json gives it. A metric is steady when its spread stays below
// a third of its bound.
func runSteady(workload string, seed int64, seconds, traceFlag, n int, bin, work string) error {
	bounds := make(map[string]float64)
	if raw, err := os.ReadFile("BENCHMARK.json"); err == nil {
		var spec struct {
			EndToEnd []struct {
				Name  string  `json:"name"`
				Bound float64 `json:"bound"`
			} `json:"end_to_end"`
		}
		if err := json.Unmarshal(raw, &spec); err != nil {
			return fmt.Errorf("BENCHMARK.json: %w", err)
		}
		for _, m := range spec.EndToEnd {
			bounds[m.Name] = m.Bound
		}
	}
	values := make(map[string][]float64)
	units := make(map[string]string)
	attempted, failed := 0, 0
	for i := 0; i < n; i++ {
		s := seed + int64(i)
		args := []string{"--workload", workload, "--seed", strconv.FormatInt(s, 10),
			"--seconds", strconv.Itoa(seconds), "--trace", strconv.Itoa(traceFlag), "--bin", bin}
		if work != "" {
			args = append(args, "--work", work)
		}
		cmd := exec.Command(os.Args[0], args...)
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		lines := strings.Split(strings.TrimSpace(string(out)), "\n")
		var res result
		if jerr := json.Unmarshal([]byte(lines[len(lines)-1]), &res); jerr != nil || err != nil || !res.Correct {
			os.Stdout.Write(out)
			return fmt.Errorf("run with seed %d failed: %v", s, err)
		}
		attempted += res.Attempted
		failed += res.Failed
		fmt.Printf("# seed %d: attempted=%d failed=%d", s, res.Attempted, res.Failed)
		for _, name := range sortedNames(res.Metrics) {
			fmt.Printf(" %s=%.4g", name, res.Metrics[name].Value)
		}
		fmt.Println()
		for name, m := range res.Metrics {
			values[name] = append(values[name], m.Value)
			units[name] = m.Unit
		}
	}
	names := sortedNames(values)
	fmt.Printf("%s: %d runs, attempted=%d failed=%d\n", workload, n, attempted, failed)
	fmt.Printf("%-34s %-6s %12s %12s %12s %8s %7s\n", "metric", "unit", "median", "q1", "q3", "spread", "bound")
	for _, name := range names {
		q := quartiles(values[name])
		spread := ratio(q[2]-q[0], q[1])
		verdict := ""
		if b, ok := bounds[name]; ok {
			verdict = fmt.Sprintf("%7.3f", b)
			if spread >= b/3 {
				verdict += "  UNSTEADY"
			}
		}
		fmt.Printf("%-34s %-6s %12.4f %12.4f %12.4f %8.4f %s\n", name, units[name], q[1], q[0], q[2], spread, verdict)
	}
	return nil
}

// quartiles returns the first, second and third quartile the way Python's
// statistics.quantiles(xs, n=4) computes them (its default exclusive
// method); with one value, all three are that value.
func quartiles(xs []float64) [3]float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 1 {
		return [3]float64{s[0], s[0], s[0]}
	}
	var out [3]float64
	m := n + 1
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		delta := i*m - j*4
		switch {
		case j < 1:
			out[i-1] = s[0]
		case j >= n:
			out[i-1] = s[n-1]
		default:
			out[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
		}
	}
	return out
}

func sortedNames[V any](m map[string]V) []string {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
