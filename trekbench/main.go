// Command trekbench is GraphTrek's end-to-end benchmark. It runs one named
// workload against the system as its users reach it — the graphtrek
// package for an in-process cluster, the graphtrek-gen and
// graphtrek-server commands plus a wire-protocol client for a cluster on
// loopback TCP — checks every answer against its own evaluator, and prints
// one JSON result line:
//
//	trekbench --workload rmat-8hop --seed 1 --seconds 20 --trace 0
//
// --trace 0 reports the end-to-end metrics with no benchmark-side tracing;
// --trace 1 reports the per-layer metrics, gathered from the servers'
// counters and histograms and from each traced traversal's causal DAG.
// --steady N runs the workload N times with consecutive seeds and prints
// the median, quartiles and spread of every metric against the bounds in
// BENCHMARK.json. trekbench/run.sh builds the binaries and runs this.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// bench is the state of one workload run.
type bench struct {
	workload string
	seed     int64
	window   time.Duration
	trace    bool
	bin      string // directory holding graphtrek-gen and graphtrek-server
	work     string // scratch directory for data and logs, removed on exit

	mu        sync.Mutex
	attempted int
	failed    int
	problems  []string // failed output checks
	e2e       map[string]metric
	layers    map[string]metric
	notes     []string // figures printed in the report but not gated
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(*bench) error{
	"rmat-8hop":    runRMAT,
	"meta-audit":   runMetaAudit,
	"ingest-churn": runIngest,
}

func main() {
	workload := flag.String("workload", "", "workload: rmat-8hop | meta-audit | ingest-churn")
	seed := flag.Int64("seed", 1, "seed of the workload's inputs")
	seconds := flag.Int("seconds", 20, "length of the measured window")
	traceFlag := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run")
	steady := flag.Int("steady", 0, "run the workload this many times with consecutive seeds and print each metric's spread")
	bin := flag.String("bin", "", "directory with the graphtrek-gen and graphtrek-server binaries")
	work := flag.String("work", "", "scratch directory (default: a fresh directory under the current one)")
	flag.Parse()

	if _, ok := workloads[*workload]; !ok || *seconds < 1 || *traceFlag < 0 || *traceFlag > 1 {
		fmt.Fprintln(os.Stderr, "trekbench: need --workload rmat-8hop|meta-audit|ingest-churn, --seconds >= 1, --trace 0|1")
		os.Exit(2)
	}
	if *steady > 0 {
		if err := runSteady(*workload, *seed, *seconds, *traceFlag, *steady, *bin, *work); err != nil {
			fmt.Fprintln(os.Stderr, "trekbench:", err)
			os.Exit(1)
		}
		return
	}
	b := &bench{
		workload: *workload, seed: *seed, window: time.Duration(*seconds) * time.Second,
		trace: *traceFlag == 1, bin: *bin,
		e2e: make(map[string]metric), layers: make(map[string]metric),
	}
	os.Exit(b.main(*work))
}

// main runs the workload and prints the report; it returns the exit code.
func (b *bench) main(work string) int {
	var err error
	if work == "" {
		work, err = os.MkdirTemp(".", ".trekbench-")
	} else {
		err = os.MkdirAll(work, 0o755)
		if err == nil {
			work, err = os.MkdirTemp(work, "run-")
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "trekbench:", err)
		return 1
	}
	b.work, _ = filepath.Abs(work)
	defer os.RemoveAll(b.work)
	// An interrupt stops every server this run started and removes the
	// scratch directory before exiting.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		s := <-sig
		fmt.Fprintf(os.Stderr, "trekbench: %v: stopping servers\n", s)
		stopAllClusters()
		os.RemoveAll(b.work)
		os.Exit(130)
	}()

	b.header()
	start := time.Now()
	err = workloads[b.workload](b)
	stopAllClusters()
	if err != nil {
		fmt.Fprintf(os.Stderr, "trekbench: %s: %v\n", b.workload, err)
		return 1
	}
	b.footer(time.Since(start))
	res := result{Correct: len(b.problems) == 0, Attempted: b.attempted, Failed: b.failed, Metrics: b.e2e}
	if b.trace {
		res.Metrics = b.layers
	}
	if res.Attempted < 1 {
		fmt.Fprintf(os.Stderr, "trekbench: %s attempted no operations\n", b.workload)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "trekbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// header prints the run's environment and inputs.
func (b *bench) header() {
	commit := "unknown"
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	fmt.Printf("# trekbench workload=%s seed=%d seconds=%d trace=%v\n",
		b.workload, b.seed, int(b.window/time.Second), b.trace)
	fmt.Printf("# nproc=%d GOMAXPROCS=%d go=%s commit=%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit)
}

// footer prints the operation counts, every output check that failed, the
// ungated figures and the metrics.
func (b *bench) footer(elapsed time.Duration) {
	fmt.Printf("# %s: attempted=%d failed=%d checks_failed=%d elapsed=%.1fs\n",
		b.workload, b.attempted, b.failed, len(b.problems), elapsed.Seconds())
	for _, p := range b.problems {
		fmt.Printf("# CHECK FAILED: %s\n", p)
	}
	for _, n := range b.notes {
		fmt.Printf("# %s\n", n)
	}
	ms := b.e2e
	if b.trace {
		ms = b.layers
	}
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("# %-34s %14.4f %s\n", n, ms[n].Value, ms[n].Unit)
	}
}

// check records a failed output check. Safe for concurrent use.
func (b *bench) check(ok bool, format string, args ...any) bool {
	if !ok {
		b.mu.Lock()
		if len(b.problems) < 50 {
			b.problems = append(b.problems, fmt.Sprintf(format, args...))
		}
		b.mu.Unlock()
	}
	return ok
}

// count records one timed operation and whether it failed.
func (b *bench) count(failed bool) {
	b.mu.Lock()
	b.attempted++
	if failed {
		b.failed++
	}
	b.mu.Unlock()
}

func (b *bench) note(format string, args ...any) {
	b.notes = append(b.notes, fmt.Sprintf(format, args...))
}

func (b *bench) setE2E(name, unit string, v float64)   { b.e2e[name] = metric{v, unit} }
func (b *bench) setLayer(name, unit string, v float64) { b.layers[name] = metric{v, unit} }
