// Command perfbench is the repository benchmark. One invocation deploys
// the system for a named workload, drives it closed-loop for a fixed wall
// time, checks every served output, and prints the end-to-end metrics
// (untraced run) or the per-layer metrics (traced run) as the last line
// of standard output:
//
//	perfbench --workload cams-steady --seed 1 --seconds 10 --trace 0
//
// Workloads:
//
//	cams-steady  paper-shaped model, static KG, 8 cameras in-process
//	cams-drift   shipped quick model with continuous KG adaptation, 32
//	             cameras in-process, each shifting Stealing → Explosion
//	fleet-http   shipped quick model, static KG, 2 HTTP workers on
//	             loopback behind shard.Router with failover armed
//
// The benchmark drives the system only through its public calls
// (serve.Server, netserve.Handler/Client, shard.Router, and the core and
// model packages for the traced stage replay). See README.md for what
// each metric means and which layer metric should move which end-to-end
// metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"time"
)

func main() {
	var (
		workload = flag.String("workload", "", "workload name: cams-steady, cams-drift or fleet-http")
		seed     = flag.Int64("seed", 1, "input seed: camera frame schedules and labels are a pure function of it")
		seconds  = flag.Float64("seconds", 10, "timed window length in seconds (whole rounds are completed)")
		trace    = flag.Int("trace", 0, "1 times the calls into each layer and reports per-layer metrics instead of end-to-end ones")
	)
	flag.Parse()
	cfg, err := configFor(*workload)
	if err == nil && *seconds <= 0 {
		err = fmt.Errorf("--seconds %v must be > 0", *seconds)
	}
	if err == nil && *trace != 0 && *trace != 1 {
		err = fmt.Errorf("--trace %d must be 0 or 1", *trace)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	cfg.seed = *seed
	cfg.seconds = time.Duration(*seconds * float64(time.Second))
	cfg.trace = *trace == 1

	out, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	for _, line := range out.notes {
		fmt.Println(line)
	}
	for _, e := range out.errs {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", e)
	}
	buf, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(buf))
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one run's outcome: the result line's fields, plus the
// human-readable notes and the text of every failed check, which stay
// off that line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	notes     []string
	errs      []string
}

// sortedKeys returns m's keys in order, for stable note output.
func sortedKeys(m map[string]metric) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
