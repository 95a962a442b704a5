package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"sort"
	"testing"
	"time"
)

// benchmarkJSON is the part of ../BENCHMARK.json the tests read.
type benchmarkJSON struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	blob, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(blob, &bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

// TestTablesMatchBenchmarkJSON pins the metric tables and the workload
// set to what BENCHMARK.json declares.
func TestTablesMatchBenchmarkJSON(t *testing.T) {
	bj := loadBenchmarkJSON(t)
	check := func(kind string, defs []metricDef, declared []struct{ Name, Unit string }) {
		if len(defs) != len(declared) {
			t.Errorf("%s: %d metrics in the code, %d in BENCHMARK.json", kind, len(defs), len(declared))
			return
		}
		for i, d := range defs {
			if d.Name != declared[i].Name || d.Unit != declared[i].Unit {
				t.Errorf("%s[%d]: code %s (%s), BENCHMARK.json %s (%s)",
					kind, i, d.Name, d.Unit, declared[i].Name, declared[i].Unit)
			}
		}
	}
	check("end_to_end", endToEnd, bj.EndToEnd)
	check("per_layer", perLayer, bj.PerLayer)
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q has no run function", w.Name)
		}
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json names workloads %v; the code has %d", names, len(workloads))
	}
}

// smoke runs one short invocation and checks its result line.
func smoke(t *testing.T, workload string, trace bool, window time.Duration) *result {
	t.Helper()
	res, err := run(options{Workload: workload, Seed: 7, Window: window, Trace: trace, Report: io.Discard})
	if err != nil {
		t.Fatalf("%s trace=%v: %v", workload, trace, err)
	}
	if !res.correct() {
		t.Fatalf("%s trace=%v: not correct: %v", workload, trace, res.Problems)
	}
	if res.Attempted < 1 {
		t.Fatalf("%s trace=%v: nothing attempted", workload, trace)
	}
	return res
}

// TestSmokeEveryMetricPresent runs each workload briefly, untraced and
// traced, and checks that the result line carries every metric
// BENCHMARK.json names, with the declared unit, and that the end-to-end
// ones are finite and never 0.
func TestSmokeEveryMetricPresent(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	bj := loadBenchmarkJSON(t)
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, w := range names {
		t.Run(w, func(t *testing.T) {
			untraced := smoke(t, w, false, time.Second).summary(false)
			for _, m := range bj.EndToEnd {
				got, ok := untraced.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("end-to-end %s missing or wrong unit: %+v", m.Name, got)
				}
				if got.Value <= 0 || math.IsInf(got.Value, 0) || math.IsNaN(got.Value) {
					t.Errorf("end-to-end %s = %v, want a finite value above 0", m.Name, got.Value)
				}
			}
			traced := smoke(t, w, true, time.Second).summary(true)
			for _, m := range bj.PerLayer {
				got, ok := traced.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("per-layer %s missing or wrong unit: %+v", m.Name, got)
				}
				if math.IsInf(got.Value, 0) || math.IsNaN(got.Value) {
					t.Errorf("per-layer %s = %v, want a finite value", m.Name, got.Value)
				}
			}
			if traced.Metrics["trace.overhead_ratio"].Value <= 0 {
				t.Errorf("trace.overhead_ratio not measured")
			}
		})
	}
}

// TestQualityCountsRepeat runs paper-pressure twice: the quality figures
// are exact counts and must be identical, bit for bit.
func TestQualityCountsRepeat(t *testing.T) {
	var first map[string]float64
	for i := 0; i < 2; i++ {
		res := smoke(t, "paper-pressure", false, 200*time.Millisecond)
		got := map[string]float64{}
		for _, k := range []string{"moves_inserted", "crit_cycles_per_pkt", "noncrit_cycles_per_pkt"} {
			got[k] = res.Values[k]
			if got[k] <= 0 {
				t.Errorf("%s = %v, want > 0", k, got[k])
			}
		}
		if first == nil {
			first = got
			continue
		}
		for k, v := range got {
			if v != first[k] {
				t.Errorf("%s: %v then %v", k, first[k], v)
			}
		}
	}
}

// TestSelfTime checks the self-time rule: a span's duration minus the
// part of it its children cover, overlapping children counted once.
func TestSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Start: 0, End: 100},
		{ID: 2, Parent: 1, Start: 10, End: 40},
		{ID: 3, Parent: 1, Start: 30, End: 60},  // overlaps 2 by 10
		{ID: 4, Parent: 1, Start: 90, End: 120}, // clipped to the parent
		{ID: 5, Parent: 2, Start: 15, End: 20},
	}
	self := selfNS(spans)
	want := map[int64]int64{1: 100 - 50 - 10, 2: 30 - 5, 3: 30, 4: 30, 5: 5}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("span %d: self %d, want %d", id, self[id], w)
		}
	}
}

func TestWindowStats(t *testing.T) {
	var ops []timedOp
	for i := 0; i < 1000; i++ {
		ops = append(ops, timedOp{EndNS: int64(i) * int64(time.Millisecond), LatMS: 1})
	}
	ops[10].LatMS = 500 // one stall moves one slice, not the median
	p50, p99, rate := windowStats(ops, time.Second)
	if p50 != 1 || p99 != 1 {
		t.Errorf("p50 %v p99 %v, want 1 and 1", p50, p99)
	}
	if math.Abs(rate-1000) > 1e-6 {
		t.Errorf("rate %v, want 1000/s", rate)
	}
}
