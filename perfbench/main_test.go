package main

import (
	"encoding/json"
	"math"
	"os"
	"sort"
	"strings"
	"testing"
	"time"
)

// TestWorkloads is the benchmark's self-test: every workload, untraced
// and traced, at a tiny size through all of its output checks. Each run
// must pass its checks and report exactly the metrics BENCHMARK.json
// names for its mode.
func TestWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("trains three backbones")
	}
	spec := readSpec(t)
	for _, name := range spec.workloads {
		digests := map[bool]string{}
		for _, trace := range []bool{false, true} {
			cfg, err := configFor(name)
			if err != nil {
				t.Fatal(err)
			}
			cfg.seed, cfg.trace = 3, trace
			cfg.seconds, cfg.replay, cfg.setups = 500*time.Millisecond, 50*time.Millisecond, 1
			if name == "cams-steady" {
				cfg.trainSteps = 40
			}
			res, err := run(cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d: %v", name, trace, res.Correct, res.Attempted, res.Failed, res.errs)
			}
			want := spec.endToEnd
			if trace {
				want = spec.perLayer
			}
			if got := sortedKeys(res.Metrics); strings.Join(got, " ") != strings.Join(want, " ") {
				t.Errorf("%s trace=%v: metrics %v, BENCHMARK.json names %v", name, trace, got, want)
			}
			for k, m := range res.Metrics {
				if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s trace=%v: %s = %v", name, trace, k, m.Value)
				}
			}
			if !trace {
				for _, k := range spec.endToEnd {
					if res.Metrics[k].Value <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, k, res.Metrics[k].Value)
					}
				}
			}
			for _, n := range res.notes {
				if strings.HasPrefix(n, "score-trace digest") {
					digests[trace] = n
				}
			}
		}
		if digests[false] != digests[true] {
			t.Errorf("%s: one seed, two runs, different score traces: %q vs %q", name, digests[false], digests[true])
		}
	}
}

type spec struct {
	workloads, endToEnd, perLayer []string
}

// readSpec reads the workload and metric names from BENCHMARK.json.
func readSpec(t *testing.T) spec {
	t.Helper()
	buf, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var raw struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name string }       `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(buf, &raw); err != nil {
		t.Fatal(err)
	}
	var s spec
	for _, w := range raw.Workloads {
		s.workloads = append(s.workloads, w.Name)
	}
	for _, m := range raw.EndToEnd {
		s.endToEnd = append(s.endToEnd, m.Name)
	}
	units := map[string]string{}
	for _, m := range raw.PerLayer {
		s.perLayer = append(s.perLayer, m.Name)
		units[m.Name] = m.Unit
	}
	for _, l := range perLayer {
		if units[l.name] != l.unit {
			t.Errorf("per-layer metric %s: unit %q here, %q in BENCHMARK.json", l.name, l.unit, units[l.name])
		}
	}
	sort.Strings(s.endToEnd)
	sort.Strings(s.perLayer)
	return s
}

func TestRocAUC(t *testing.T) {
	for _, c := range []struct {
		scores []float64
		labels []bool
		want   float64
	}{
		{[]float64{0.1, 0.2, 0.8, 0.9}, []bool{false, false, true, true}, 1},
		{[]float64{0.9, 0.8, 0.2, 0.1}, []bool{false, false, true, true}, 0},
		{[]float64{0.5, 0.5, 0.5, 0.5}, []bool{false, true, false, true}, 0.5},
		{[]float64{0.1, 0.4, 0.35, 0.8}, []bool{false, false, true, true}, 0.75},
	} {
		if got := rocAUC(c.scores, c.labels); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("rocAUC(%v, %v) = %v, want %v", c.scores, c.labels, got, c.want)
		}
	}
	if got := rocAUC([]float64{1, 2}, []bool{true, true}); !math.IsNaN(got) {
		t.Errorf("rocAUC with one class = %v, want NaN", got)
	}
}

func TestPercentileAndMedian(t *testing.T) {
	v := make([]float64, 1000)
	for i := range v {
		v[i] = float64(i + 1)
	}
	if got := percentile(v, 0.99); got != 990 {
		t.Errorf("p99 of 1..1000 = %v, want 990", got)
	}
	if got := percentile(v, 0.5); got != 500 {
		t.Errorf("p50 of 1..1000 = %v, want 500", got)
	}
	if got := median([]float64{3, 1, 2, 10}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

func TestFailedFramesFailTheRun(t *testing.T) {
	b := newBench(config{workload: "cams-steady", cameras: 1, pool: 1})
	b.auc = 0.9
	b.attempted.Store(10)
	b.failed.Store(1)
	if res := b.finish(); res.Correct {
		t.Error("a run with a failed frame reports correct")
	}
	b.failed.Store(0)
	b.errs = nil
	if res := b.finish(); !res.Correct {
		t.Errorf("a run without failed frames reports incorrect: %v", res.errs)
	}
}
