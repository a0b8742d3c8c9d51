// Command perfbench is the repository benchmark. It drives one workload in
// process through the public APIs of server, engine, tpcd and epoch, checks
// every answer against the reference evaluator, and prints one JSON result
// line:
//
//	perfbench --workload fig9-paged --seed 1 --seconds 20 --trace 0
//
// Workloads (all closed loop; see README.md and BENCHMARK.json):
//
//	fig9-paged     2 clients round-robin the 15 Figure-9 queries over SF 0.02,
//	               simulated pager on (moaserve's default); between read
//	               blocks a writer alone ingests into an SF 0.005 mmap store
//	refresh-mixed  1 writer ingests 5-order refresh batches into an mmap store
//	               at SF 0.005 beside 1 reader
//
// Both run in blocks, each ending with timed recoveries of the writer's
// store.
//
// --trace 0 measures the end-to-end metrics; --trace 1 is the separate
// traced run that replays the workload's operations through the layer entry
// points and reports the per-layer metrics, writing its spans under
// .bench_build/spans/.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// hostInfo is recorded with every result, so a number is never read
// without the machine and configuration that produced it.
type hostInfo struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
}

func main() {
	workload := flag.String("workload", "", "fig9-paged or refresh-mixed")
	seed := flag.Int64("seed", 1, "workload seed: drives the generator, the refresh batches and the client offsets")
	seconds := flag.Float64("seconds", 20, "measured time of one run")
	trace := flag.Int("trace", 0, "0 = end-to-end metrics, 1 = traced run with per-layer metrics")
	flag.Parse()
	cfg, err := defaultConfig(*workload, *seed, *seconds, *trace == 1)
	if err == nil && *seconds <= 0 {
		err = fmt.Errorf("--seconds must be positive")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	if err := run(cfg, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// run executes one benchmark run and prints the host/configuration line
// followed by the result line.
func run(cfg config, out io.Writer) error {
	defer os.RemoveAll(cfg.WorkDir)
	host := hostInfo{runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH}
	if err := json.NewEncoder(out).Encode(map[string]any{"host": host, "config": cfg}); err != nil {
		return err
	}
	var (
		res *result
		err error
	)
	if cfg.Trace {
		res, err = runTraced(cfg)
	} else {
		res, err = runMeasured(cfg)
	}
	if err != nil {
		return err
	}
	for k, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			// Only failures produce non-finite values; they are already
			// counted in failed, so report the metric as missing any limit.
			res.Correct = false
			res.Metrics[k] = metric{math.MaxFloat64, m.Unit}
		}
	}
	return json.NewEncoder(out).Encode(res)
}

// finish turns a tally into the result envelope, reporting why a run is
// not correct on stderr.
func finish(t tally, metrics map[string]metric) *result {
	for _, n := range t.notes {
		fmt.Fprintln(os.Stderr, "perfbench: failed:", n)
	}
	return &result{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: metrics}
}
