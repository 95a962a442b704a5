// Command e2ebench is the repository benchmark: one command that runs a
// named workload end to end from a single process, checks every output,
// and prints the workload's metrics by name and unit. Run it from the
// root of a checkout through the wrapper, which builds it first:
//
//	bash _e2ebench/run.sh --workload paper-pressure --seed 1 --seconds 20 --trace 0
//
// Workloads (README.md in this directory records why each was chosen and
// which layers it exercises or bypasses):
//
//	paper-pressure  the paper's Table 3 scenarios and kernels allocated cold
//	                at every pressured budget of their bands
//	serve-mix       the kernel-mix stream against a warm in-process npserve
//	serve-pressure  fresh heavyweight bodies at mid-band budgets against the
//	                same server: every cache lookup misses
//
// With --trace 0 the run is untraced and reports the end-to-end metrics;
// with --trace 1 it keeps spans around every call it makes into a layer
// and reports the per-layer metrics instead. The last line of standard
// output is one JSON object {correct, attempted, failed, metrics}. The
// exit code is 0 only when every output checked out and every pressure
// gate held.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"
)

// options is one benchmark invocation.
type options struct {
	Workload string
	Seed     int64
	Window   time.Duration // measured time
	Trace    bool
	TraceDir string // where a traced run writes its spans ("" = not written)
	Report   io.Writer
}

// metricDef names one reported metric; the tables below are the
// benchmark's contract and must match BENCHMARK.json (the tests check).
type metricDef struct{ Name, Unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"latency_p50_ms", "ms"},
	{"latency_p99_ms", "ms"},
	{"throughput_ops_s", "1/s"},
	{"ok_ratio", "ratio"},
	{"max_rss_mb", "MB"},
	{"moves_inserted", "count"},
	{"crit_cycles_per_pkt", "cycles"},
	{"noncrit_cycles_per_pkt", "cycles"},
}

var perLayer = []metricDef{
	{"serve.handler_p50_ms", "ms"},
	{"serve.handler_p99_ms", "ms"},
	{"http.transport_p50_ms", "ms"},
	{"serve.self_ms_mean", "ms"},
	{"serve.raw_hit_rate", "ratio"},
	{"serve.singleflight_hit_rate", "ratio"},
	{"serve.batch_mean", "jobs/batch"},
	{"serve.engine_invocations_per_req", "invocations/req"},
	{"serve.overloads", "count"},
	{"funccache.func_hit_rate", "ratio"},
	{"funccache.body_hit_rate", "ratio"},
	{"funccache.rewrite_hit_rate", "ratio"},
	{"funccache.rewrite_reloc_share", "ratio"},
	{"funccache.evictions_per_req", "evictions/req"},
	{"funccache.bytes", "bytes"},
	{"core.alloc_p50_ms", "ms"},
	{"core.alloc_p99_ms", "ms"},
	{"core.greedy_self_ms", "ms"},
	{"core.solve_cache_hit_rate", "ratio"},
	{"core.wire_decode_ms", "ms"},
	{"core.wire_compile_ms", "ms"},
	{"core.wire_hash_ms", "ms"},
	{"core.wire_encode_ms", "ms"},
	{"intra.color_ms", "ms"},
	{"intra.color_share", "ratio"},
	{"intra.trials_per_op", "trials/op"},
	{"intra.chain_steps_per_op", "steps/op"},
	{"intra.rewrite_ms", "ms"},
	{"intra.rewrite_cached_ms", "ms"},
	{"estimate.merge_ms", "ms"},
	{"estimate.repair_ms", "ms"},
	{"ig.build_ms", "ms"},
	{"sim.ns_per_cycle", "ns"},
	{"sim.idle_share", "ratio"},
	{"core.verify_ms", "ms"},
	{"interp.check_ms", "ms"},
	{"trace.overhead_ratio", "ratio"},
}

// result is what one invocation reports. Values holds every metric the
// workload measured; the printed JSON carries the end-to-end set of an
// untraced run or the per-layer set of a traced one.
type result struct {
	Attempted, Failed int64
	Problems          []string
	Values            map[string]float64
}

func newResult() *result { return &result{Values: make(map[string]float64)} }

// fail records a correctness or gate failure.
func (r *result) fail(format string, args ...any) {
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

// failOp counts one failed operation; the first few are described.
func (r *result) failOp(format string, args ...any) {
	r.Failed++
	if r.Failed <= 10 {
		r.fail(format, args...)
	}
}

func (r *result) correct() bool { return len(r.Problems) == 0 && r.Failed == 0 }

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// summary renders the result line for the metric set the run reports.
func (r *result) summary(trace bool) jsonResult {
	defs := endToEnd
	if trace {
		defs = perLayer
	}
	out := jsonResult{Correct: r.correct(), Attempted: r.Attempted, Failed: r.Failed,
		Metrics: make(map[string]jsonMetric, len(defs))}
	for _, d := range defs {
		out.Metrics[d.Name] = jsonMetric{Value: r.Values[d.Name], Unit: d.Unit}
	}
	return out
}

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(options) (*result, error){
	"paper-pressure": runPaper,
	"serve-mix":      runServeMix,
	"serve-pressure": runServePressure,
}

// run executes one invocation and prints the human-readable report.
func run(o options) (*result, error) {
	runWorkload, ok := workloads[o.Workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want paper-pressure, serve-mix or serve-pressure)", o.Workload)
	}
	if o.Window <= 0 {
		return nil, fmt.Errorf("--seconds must be positive")
	}
	fmt.Fprintf(o.Report, "workload %s  seed %d  window %v  trace %v\n", o.Workload, o.Seed, o.Window, o.Trace)
	res, err := runWorkload(o)
	if err != nil {
		return nil, err
	}
	res.Values["max_rss_mb"] = peakRSSMB()
	if res.Attempted > 0 {
		res.Values["ok_ratio"] = float64(res.Attempted-res.Failed) / float64(res.Attempted)
	}
	defs := endToEnd
	if o.Trace {
		defs = perLayer
	}
	fmt.Fprintf(o.Report, "attempted %d  failed %d  fail_ratio %.4f\n", res.Attempted, res.Failed,
		1-res.Values["ok_ratio"])
	for _, d := range defs {
		fmt.Fprintf(o.Report, "  %-34s %14.6g %s\n", d.Name, res.Values[d.Name], d.Unit)
	}
	for _, p := range res.Problems {
		fmt.Fprintf(o.Report, "FAIL: %s\n", p)
	}
	return res, nil
}

func main() {
	workload := flag.String("workload", "", "paper-pressure, serve-mix or serve-pressure")
	seed := flag.Int64("seed", 1, "input seed: the same seed gives the same inputs")
	seconds := flag.Float64("seconds", 20, "measured time in seconds")
	trace := flag.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
	traceDir := flag.String("trace-dir", "", "directory a traced run writes its span dump to (empty = keep in memory only)")
	flag.Parse()

	o := options{
		Workload: *workload,
		Seed:     *seed,
		Window:   time.Duration(*seconds * float64(time.Second)),
		Trace:    *trace != 0,
		Report:   os.Stdout,
	}
	if o.Trace && *traceDir != "" {
		o.TraceDir = filepath.Clean(*traceDir)
	}
	res, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(2)
	}
	line, err := json.Marshal(res.summary(o.Trace))
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(2)
	}
	fmt.Println(string(line))
	if !res.correct() {
		os.Exit(1)
	}
}
