package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call the benchmark made into a layer. Spans of one
// operation share Op; Parent is the span that caused this one (0 for an
// operation's root).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's origin
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory for the whole run; they are written out
// once, when the run ends. Safe for concurrent use: client goroutines
// and the server's handler goroutines record into the same tracer.
type tracer struct {
	origin time.Time
	ids    atomic.Int64
	ops    atomic.Int64

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// sampled picks the operations a traced run traces: a pseudo-random half
// of operation indices (Fibonacci hashing), so traced and untraced
// operations interleave over one window and compare like with like.
func sampled(i int64) bool { return uint64(i)*0x9E3779B97F4A7C15>>63 == 1 }

// newOp allocates an operation ID.
func (t *tracer) newOp() int64 { return t.ops.Add(1) }

// newID allocates a span ID ahead of recording, so a child recorded
// first (by the server, say) can already name its parent.
func (t *tracer) newID() int64 { return t.ids.Add(1) }

// record stores a finished span under a pre-allocated ID.
func (t *tracer) record(id, parent, op int64, name string, start, end time.Time) {
	s := span{ID: id, Parent: parent, Op: op, Name: name,
		Start: start.Sub(t.origin).Nanoseconds(), End: end.Sub(t.origin).Nanoseconds()}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// timed runs fn and returns its duration; with a tracer it also records
// the call as a span named name.
func timed(t *tracer, parent, op int64, name string, fn func()) time.Duration {
	start := time.Now()
	fn()
	end := time.Now()
	if t != nil {
		t.record(t.newID(), parent, op, name, start, end)
	}
	return end.Sub(start)
}

// snapshot returns a copy of the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfNS returns each span's self time: its duration minus the part of
// that interval its child spans cover (children are clipped to the
// parent and overlapping children are counted once).
func selfNS(spans []span) map[int64]int64 {
	children := make(map[int64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int64]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, cursor := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, cursor), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				cursor = hi
			}
		}
		self[s.ID] = s.dur() - covered
	}
	return self
}

// layerTotals sums span count, duration and self time per span name.
type layerTotal struct {
	Count         int
	TotalNS, Self int64
}

func layerTotals(spans []span) map[string]*layerTotal {
	self := selfNS(spans)
	out := make(map[string]*layerTotal)
	for _, s := range spans {
		lt := out[s.Name]
		if lt == nil {
			lt = &layerTotal{}
			out[s.Name] = lt
		}
		lt.Count++
		lt.TotalNS += s.dur()
		lt.Self += self[s.ID]
	}
	return out
}

// durationsMS returns the durations of the spans named name, in ms.
func durationsMS(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, nsToMS(s.dur()))
		}
	}
	return out
}

// printLayers writes the per-name self-time table of a traced run.
func printLayers(w io.Writer, spans []span) {
	totals := layerTotals(spans)
	names := make([]string, 0, len(totals))
	for n := range totals {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "spans: %-24s %8s %12s %12s\n", "layer", "count", "total_ms", "self_ms")
	for _, n := range names {
		lt := totals[n]
		fmt.Fprintf(w, "spans: %-24s %8d %12.3f %12.3f\n", n, lt.Count, nsToMS(lt.TotalNS), nsToMS(lt.Self))
	}
}

// writeSpans dumps spans as JSON lines to dir/trace-<workload>.jsonl
// (one file per workload: the last traced run's).
func writeSpans(dir, workload string, spans []span) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".jsonl")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return "", err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// finishTrace prints the layer table and writes the dump when asked.
func finishTrace(o options, tr *tracer, res *result) {
	spans := tr.snapshot()
	printLayers(o.Report, spans)
	if o.TraceDir == "" {
		return
	}
	path, err := writeSpans(o.TraceDir, o.Workload, spans)
	if err != nil {
		res.fail("writing spans: %v", err)
		return
	}
	fmt.Fprintf(o.Report, "spans: %d written to %s\n", len(spans), path)
}
