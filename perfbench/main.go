// Command perfbench is QVISOR's benchmark: one command that runs a named
// workload, checks the program's outputs, and prints every metric by name
// and unit, ending with a one-line JSON result.
//
//	go run . --workload fabric-paper --seed 1 --seconds 10 --trace 0
//	go run . compare old.txt new.txt
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it
// prints the per-layer metrics of a traced run instead. The compare mode
// reads the saved output of two sets of runs and judges each metric. See
// README.md for the workloads, the metrics and how they relate.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "compare" {
		return compareMain(args[1:], stdout, stderr)
	}
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run: fabric-paper, fabric-observed or control-churn")
	seed := fs.Int64("seed", defaultSeed, fmt.Sprintf("workload seed (held-out seed: %d)", heldOutSeed))
	seconds := fs.Int("seconds", defaultSecs, "how long to measure")
	traced := fs.Int("trace", 0, "1 runs the traced run and prints the per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be at least 1 and --trace 0 or 1")
		return 2
	}
	// A run must end within its time limit; a hung one fails rather than
	// printing a late result.
	deadline := time.AfterFunc(deadlineSecs*time.Second, func() {
		fmt.Fprintf(stderr, "perfbench: %s did not finish within %d s\n", *workload, deadlineSecs)
		os.Exit(3)
	})
	defer deadline.Stop()

	budget := time.Duration(*seconds) * time.Second
	var (
		rep *report
		err error
	)
	switch *workload {
	case wlPaper:
		rep, err = runFabric(fabricPaper(), *seed, budget, *traced == 1)
	case wlObserved:
		rep, err = runFabric(fabricObserved(), *seed, budget, *traced == 1)
	case wlChurn:
		rep, err = runChurn(*seed, budget, *traced == 1)
	default:
		fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", *workload)
		return 2
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "fingerprint: %s\n", fingerprint())
	fmt.Fprintf(stdout, "workload %s seed %d seconds %d trace %d\n", *workload, *seed, *seconds, *traced)
	defs := endToEnd
	if *traced == 1 {
		defs = perLayer
	}
	if err := rep.write(stdout, *workload, defs); err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	if !rep.correct() {
		return 1
	}
	return 0
}

// fingerprint identifies the machine a result was measured on.
func fingerprint() string {
	return fmt.Sprintf("cpu=%q nproc=%d gomaxprocs=%d go=%s %s/%s",
		cpuModel(), runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH)
}

// cpuModel returns the first "model name" of /proc/cpuinfo, or "unknown"
// where the kernel gives none.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
