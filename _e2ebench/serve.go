package main

// serve-mix and serve-pressure: npserve in-process over loopback with its
// default serve.Config, driven closed-loop by at most nproc clients
// (build tools each waiting for their allocation).

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"npra/internal/bench"
	"npra/internal/core"
	"npra/internal/estimate"
	"npra/internal/funccache"
	"npra/internal/intra"
	"npra/internal/ir"
	"npra/internal/serve"
)

const (
	spanHeader = "X-Bench-Span" // "<client span id>/<op id>" in traced runs

	mixKernels = 8 // 5 heavyweight progen specs + 3 service asm kernels
	mixThreads = 4 // at most this many threads per request
	mixNReg    = 128
	mixWarmup  = 2048 // stream requests sent before timing

	pressureWarmup = 128 // fresh requests sent before timing: fills the function tier past capacity
	pressureRate   = 400 // requests per second the serve-pressure stream is sized for (~1.4x the rate seen on 2 vCPUs)
	pressureSRA    = 8   // every 8th serve-pressure request is an SRA nthd-4 request

	sampleSize   = 16  // requests checked against a direct allocation
	samplePrefix = 256 // ... drawn from this many first measured requests
	replayMax    = 400 // measured requests replayed through the wire calls
)

// heavyweight is the kernel-mix pool's progen spec: deep nesting, long
// bodies and many variables, so engine work dominates transport.
func heavyweight(seed int64) *core.WireProgen {
	return &core.WireProgen{Seed: seed, MaxDepth: 4, MaxBodyLen: 24, MaxTripCnt: 8, MaxVars: 24, CSBDensity: 0.3}
}

// request is one stream entry: the wire request and its marshaled body.
type request struct {
	Req  *core.WireRequest
	Body []byte
}

func newRequest(req *core.WireRequest) (*request, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	return &request{Req: req, Body: body}, nil
}

// stream yields the i-th request of a workload (false when exhausted).
type stream interface {
	at(i int) (*request, bool)
}

// mixThreadCycle is the thread count of request i%8 of the mix stream.
// One- and two-thread compositions are few enough to be answered from
// the raw request cache; weighting toward three and four threads keeps
// the median request off the cliff between those hits and engine runs
// (an even 1..4 cycle puts the median exactly on it).
var mixThreadCycle = [...]int{1, 2, 3, 3, 4, 4, 4, 4}

// mixStream is the kernel-mix stream: request i carries n =
// mixThreadCycle[i%8] threads whose kernels are the base-8 digits of k,
// the count of n-thread requests before it. The pool is nploadgen's
// default kernel-mix pool; the seed permutes its slots and picks where
// in the stream's period the run starts, so every seed sends the same
// compositions in a different order. Every distinct composition is
// marshaled once at set-up.
type mixStream struct {
	comps  [mixThreads][]*request // [nthreads-1][composition]
	offset int
}

func newMixStream(seed int64) (*mixStream, error) {
	var pool []core.WireThread
	for k := 0; k < mixKernels-3; k++ {
		pool = append(pool, core.WireThread{Progen: heavyweight(1_000_000 + int64(k))})
	}
	for _, name := range []string{"ipv6_fwd", "aes_round", "dpi_scan"} {
		b, err := bench.Get(name)
		if err != nil {
			return nil, err
		}
		pool = append(pool, core.WireThread{Asm: b.Gen(8).Format()})
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	s := &mixStream{offset: rng.Intn(len(mixThreadCycle) * len(pool) * len(pool) * len(pool) * len(pool))}
	size := 1
	for n := 1; n <= mixThreads; n++ {
		size *= mixKernels
		for c := 0; c < size; c++ {
			req := &core.WireRequest{NReg: mixNReg}
			for x, t := c, 0; t < n; t, x = t+1, x/mixKernels {
				req.Threads = append(req.Threads, pool[x%mixKernels])
			}
			rq, err := newRequest(req)
			if err != nil {
				return nil, err
			}
			s.comps[n-1] = append(s.comps[n-1], rq)
		}
	}
	return s, nil
}

func (s *mixStream) at(i int) (*request, bool) {
	i += s.offset
	slot, n := i%len(mixThreadCycle), mixThreadCycle[i%len(mixThreadCycle)]
	perCycle, rank := 0, 0
	for j, m := range mixThreadCycle {
		if m == n {
			if j < slot {
				rank++
			}
			perCycle++
		}
	}
	comps := s.comps[n-1]
	return comps[((i/len(mixThreadCycle))*perCycle+rank)%len(comps)], true
}

// pressureStream is a finite stream of requests whose every thread body
// is a fresh heavyweight progen seed, each at the middle of its own
// pressure band.
type pressureStream struct{ reqs []*request }

func (s *pressureStream) at(i int) (*request, bool) {
	if i >= len(s.reqs) {
		return nil, false
	}
	return s.reqs[i], true
}

// newPressureStream generates n requests: mostly 2-4-thread ARA, every
// pressureSRA-th an SRA request for sraThreads copies of one body. Each
// request's nreg is the middle of its band, computed from the bodies'
// bounds — the analysis and estimation the server will repeat — on
// GOMAXPROCS workers.
func newPressureStream(seed int64, n int) (*pressureStream, error) {
	s := &pressureStream{reqs: make([]*request, n)}
	workers := runtime.GOMAXPROCS(0)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < n; i += workers {
				rq, err := pressureRequest(seed, i)
				if err != nil {
					errs[w] = fmt.Errorf("serve-pressure request %d: %w", i, err)
					return
				}
				s.reqs[i] = rq
			}
		}(w)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	return s, nil
}

func pressureRequest(seed int64, i int) (*request, error) {
	base := seed*1_000_000_000 + int64(i)*4          // four body seeds per request, never reused
	req := &core.WireRequest{NReg: core.WireMaxNReg} // placeholder until the band is known
	nthreads := 2 + i%3
	if i%pressureSRA == pressureSRA-1 {
		req.Mode, req.NThd, nthreads = "sra", sraThreads, 1
	}
	for t := 0; t < nthreads; t++ {
		req.Threads = append(req.Threads, core.WireThread{Progen: heavyweight(base + int64(t))})
	}
	funcs, err := req.Funcs()
	if err != nil {
		return nil, err
	}
	top, bottom := 0, 0
	if req.Mode == "sra" {
		b, err := bounds(funcs[0])
		if err != nil {
			return nil, err
		}
		top, bottom = sraBand(b, sraThreads)
	} else {
		bs := make([]estimate.Bounds, len(funcs))
		for k, f := range funcs {
			if bs[k], err = bounds(f); err != nil {
				return nil, err
			}
		}
		top, bottom = araBand(bs)
	}
	req.NReg = (top + bottom) / 2
	return newRequest(req)
}

// harness is npserve with its default configuration, listening on
// loopback, plus the client that drives it. In a traced run (tr set) a
// request that carries the span header is wrapped in a serve.handler
// span.
type harness struct {
	srv    *serve.Server
	hs     *http.Server
	url    string
	client *http.Client
	served chan struct{} // closed when hs.Serve returns
	tr     *tracer
}

func startHarness(tr *tracer) (*harness, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	h := &harness{
		srv:    serve.New(serve.Config{}),
		url:    "http://" + ln.Addr().String(),
		served: make(chan struct{}),
		tr:     tr,
		client: &http.Client{
			Timeout:   time.Minute,
			Transport: &http.Transport{MaxIdleConnsPerHost: 8, DisableCompression: true},
		},
	}
	h.hs = &http.Server{Handler: http.HandlerFunc(h.serveHTTP)}
	go func() {
		defer close(h.served)
		h.hs.Serve(ln) // returns http.ErrServerClosed once close shuts it down
	}()
	return h, nil
}

func (h *harness) serveHTTP(w http.ResponseWriter, r *http.Request) {
	tr, hdr := h.tr, r.Header.Get(spanHeader)
	if tr == nil || hdr == "" {
		h.srv.Handler().ServeHTTP(w, r)
		return
	}
	var parent, op int64
	if a, b, ok := strings.Cut(hdr, "/"); ok {
		parent, _ = strconv.ParseInt(a, 10, 64)
		op, _ = strconv.ParseInt(b, 10, 64)
	}
	id := tr.newID()
	start := time.Now()
	h.srv.Handler().ServeHTTP(w, r)
	tr.record(id, parent, op, "serve.handler", start, time.Now())
}

// close stops the listener, drains the server and waits for both.
func (h *harness) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	h.hs.Shutdown(ctx)
	<-h.served
	h.srv.Drain(ctx)
	h.client.CloseIdleConnections()
}

// post sends one request and returns the decoded response and the
// client-side latency (send to last response byte). With a tracer the
// call is a client.request span whose ID rides the spanHeader.
func (h *harness) post(body []byte, tr *tracer) (*serve.Response, time.Duration, int64, error) {
	hreq, err := http.NewRequest(http.MethodPost, h.url+"/allocate", bytes.NewReader(body))
	if err != nil {
		return nil, 0, 0, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	var op, id int64
	if tr != nil {
		op, id = tr.newOp(), tr.newID()
		hreq.Header.Set(spanHeader, strconv.FormatInt(id, 10)+"/"+strconv.FormatInt(op, 10))
	}
	start := time.Now()
	resp, err := h.client.Do(hreq)
	if err != nil {
		return nil, 0, op, err
	}
	blob, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	end := time.Now()
	if tr != nil {
		tr.record(id, 0, op, "client.request", start, end)
	}
	if err != nil {
		return nil, 0, op, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, 0, op, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(blob))
	}
	out := new(serve.Response)
	if err := json.Unmarshal(blob, out); err != nil {
		return nil, 0, op, fmt.Errorf("decoding response: %w", err)
	}
	return out, end.Sub(start), op, nil
}

// validate checks what a response must echo of its request.
func validate(rq *request, out *serve.Response) error {
	want := len(rq.Req.Threads)
	if rq.Req.Mode == "sra" {
		want = rq.Req.NThd
	}
	switch {
	case out.Degraded:
		return fmt.Errorf("degraded: %s", out.Cause)
	case out.NReg != rq.Req.NReg:
		return fmt.Errorf("nreg %d, requested %d", out.NReg, rq.Req.NReg)
	case len(out.Threads) != want:
		return fmt.Errorf("%d threads, requested %d", len(out.Threads), want)
	case out.TotalRegisters > out.NReg:
		return fmt.Errorf("%d registers used of %d", out.TotalRegisters, out.NReg)
	}
	return nil
}

// engineNS is the engine phase time a response reports.
func engineNS(p core.WirePhases) int64 {
	return p.BuildNS + p.MergeNS + p.RepairNS + p.ColorNS + p.RewriteNS + p.RewriteCachedNS
}

// served is one completed request of a drive.
type served struct {
	Index  int
	EndNS  int64 // since the drive started
	LatNS  int64
	Traced bool
	Op     int64 // trace operation (traced requests)
	Engine int64 // engine phase ns, when this request led its flight
}

// driveResult collects a drive's requests, failures and sampled responses.
type driveResult struct {
	mu        sync.Mutex
	ok        []served
	attempted int64
	failures  []string
	samples   map[int]*serve.Response
	exhausted bool
}

// drive runs clients closed-loop over stream indices from *next until
// the deadline, index end (exclusive; < 0 for none) or the end of the
// stream. With a tracer, a pseudo-random half of the requests is traced
// (sampled), interleaved with the untraced half over the same window.
// Responses to indices in sample are kept.
func (h *harness) drive(st stream, next *atomic.Int64, end int, until time.Time, clients int,
	tr *tracer, sample map[int]bool) *driveResult {
	dr := &driveResult{samples: make(map[int]*serve.Response)}
	origin := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var local []served
			var attempted int64
			var failures []string
			for time.Now().Before(until) {
				i := int(next.Add(1) - 1)
				if end >= 0 && i >= end {
					break
				}
				rq, ok := st.at(i)
				if !ok {
					dr.mu.Lock()
					dr.exhausted = true
					dr.mu.Unlock()
					break
				}
				attempted++
				var t *tracer
				if tr != nil && sampled(int64(i)) {
					t = tr
				}
				out, lat, op, err := h.post(rq.Body, t)
				if err == nil {
					err = validate(rq, out)
				}
				if err != nil {
					failures = append(failures, fmt.Sprintf("request %d: %v", i, err))
					continue
				}
				sv := served{Index: i, EndNS: time.Since(origin).Nanoseconds(), LatNS: lat.Nanoseconds(),
					Traced: t != nil, Op: op}
				if !out.Shared {
					sv.Engine = engineNS(out.Phases)
				}
				local = append(local, sv)
				if sample[i] {
					dr.mu.Lock()
					dr.samples[i] = out
					dr.mu.Unlock()
				}
			}
			dr.mu.Lock()
			dr.ok = append(dr.ok, local...)
			dr.attempted += attempted
			dr.failures = append(dr.failures, failures...)
			dr.mu.Unlock()
		}()
	}
	wg.Wait()
	return dr
}

// account folds a drive's operations into the result.
func (dr *driveResult) account(res *result) {
	res.Attempted += dr.attempted
	for _, f := range dr.failures {
		res.failOp("%s", f)
	}
}

// ops returns the traced or the untraced requests.
func (dr *driveResult) ops(traced bool) []timedOp {
	var out []timedOp
	for _, s := range dr.ok {
		if s.Traced == traced {
			out = append(out, timedOp{s.EndNS, nsToMS(s.LatNS)})
		}
	}
	return out
}

// clientCount is the closed-loop client count: nproc, at most 2.
func clientCount() int { return min(runtime.NumCPU(), 2) }

// serveSetup is one set-up of a serve workload: the stream, a started
// server warmed with the stream's first requests, and the index the
// measured stream starts at.
type serveSetup struct {
	st   stream
	h    *harness
	from int
}

// newServeSetup builds the stream, starts the server and sends the
// first warm requests closed-loop before timing starts.
func newServeSetup(build func() (stream, error), warm int, tr *tracer) (*serveSetup, func(), error) {
	st, err := build()
	if err != nil {
		return nil, nil, err
	}
	h, err := startHarness(tr)
	if err != nil {
		return nil, nil, err
	}
	var next atomic.Int64
	dr := h.drive(st, &next, warm, time.Now().Add(time.Minute), clientCount(), nil, nil)
	if len(dr.failures) > 0 || len(dr.ok) != warm {
		h.close()
		return nil, nil, fmt.Errorf("warm-up: %d of %d requests ok (%v)", len(dr.ok), warm, dr.failures)
	}
	return &serveSetup{st: st, h: h, from: warm}, h.close, nil
}

// serveGates are a workload's pressure sanity gates over the measured
// window: each workload must provably stress the layer it is for.
type serveGates func(res *result, funcHit, evictPerReq, trialsPerReq float64)

func runServeMix(o options) (*result, error) {
	return runServe(o, func() (stream, error) { return newMixStream(o.Seed) }, mixWarmup,
		func(res *result, funcHit, _, trials float64) {
			if funcHit < 0.9 {
				res.fail("pressure gate: funccache.func_hit_rate %.4f below 0.9", funcHit)
			}
			if trials != 0 {
				res.fail("pressure gate: %.3f engine trials per request, want 0", trials)
			}
		})
}

func runServePressure(o options) (*result, error) {
	n := pressureWarmup + int(o.Window.Seconds()*pressureRate) + 1
	return runServe(o, func() (stream, error) { return newPressureStream(o.Seed, n) }, pressureWarmup,
		func(res *result, funcHit, evict, trials float64) {
			if funcHit > 0.05 {
				res.fail("pressure gate: funccache.func_hit_rate %.4f, want near 0", funcHit)
			}
			if evict <= 0 {
				res.fail("pressure gate: funccache.evictions_per_req is 0, want evictions")
			}
			if trials <= 0 {
				res.fail("pressure gate: intra.trials_per_op is 0, want engine trials")
			}
		})
}

func runServe(o options, build func() (stream, error), warm int, gates serveGates) (*result, error) {
	res := newResult()
	var tr *tracer
	if o.Trace {
		tr = newTracer()
	}
	s, teardown, setupS, err := setupMedian(setupRepeats, func() (*serveSetup, func(), error) {
		return newServeSetup(build, warm, tr)
	})
	if err != nil {
		return nil, err
	}
	defer teardown()
	res.Values["setup_s"] = setupS
	h, clients := s.h, clientCount()

	rng := rand.New(rand.NewSource(o.Seed))
	sample := make(map[int]bool)
	for _, k := range rng.Perm(samplePrefix)[:sampleSize] {
		sample[s.from+k] = true
	}

	var next atomic.Int64
	next.Store(int64(s.from))
	pre := h.srv.Metrics()
	start := time.Now()
	dr := h.drive(s.st, &next, -1, start.Add(o.Window), clients, tr, sample)
	elapsed := time.Since(start)
	post := h.srv.Metrics()
	dr.account(res)
	if dr.exhausted {
		fmt.Fprintf(o.Report, "stream exhausted after %v of the %v window\n", elapsed.Round(time.Millisecond), o.Window)
	}

	lat := dr.ops(false)
	v := res.Values
	v["latency_p50_ms"], v["latency_p99_ms"], v["throughput_ops_s"] = windowStats(lat, elapsed)
	if o.Trace {
		v["throughput_ops_s"] = float64(len(dr.ok)) / elapsed.Seconds()
	}
	fmt.Fprintf(o.Report, "%d requests ok in %v from %d clients (%d untraced)\n",
		len(dr.ok), elapsed.Round(time.Millisecond), clients, len(lat))

	// Gates over the whole measured window.
	reqs := float64(max(post.LatencyCount-pre.LatencyCount, 1))
	ph := phaseDelta(pre.Phases, post.Phases)
	funcHit := rate(post.FuncCache.Hits-pre.FuncCache.Hits, post.FuncCache.Misses-pre.FuncCache.Misses)
	evict := float64(post.FuncCache.Evictions-pre.FuncCache.Evictions) / reqs
	trials := float64(ph.Trials) / reqs
	fmt.Fprintf(o.Report, "gates: func_hit_rate %.4f  evictions/req %.3f  trials/req %.2f\n", funcHit, evict, trials)
	gates(res, funcHit, evict, trials)

	direct := checkSample(s.st, res, dr)
	if !o.Trace {
		if err := qualityProbe(o, res); err != nil {
			return nil, err
		}
		return res, nil
	}

	spans := tr.snapshot()
	handler := make(map[int64]int64) // op -> handler span ns
	for _, sp := range spans {
		if sp.Name == "serve.handler" {
			handler[sp.Op] = sp.dur()
		}
	}
	var transport, self []float64
	var handlerSum int64
	for _, sv := range dr.ok {
		hns, ok := handler[sv.Op]
		if !ok {
			continue
		}
		handlerSum += hns
		transport = append(transport, nsToMS(sv.LatNS-hns))
		self = append(self, nsToMS(hns-sv.Engine))
	}
	hlat := durationsMS(spans, "serve.handler")
	v["serve.handler_p50_ms"] = percentile(hlat, 0.5)
	v["serve.handler_p99_ms"] = percentile(hlat, 0.99)
	v["http.transport_p50_ms"] = percentile(transport, 0.5)
	v["serve.self_ms_mean"] = mean(self)

	v["serve.raw_hit_rate"] = rate(post.RawCache.Hits-pre.RawCache.Hits, post.RawCache.Misses-pre.RawCache.Misses)
	v["serve.singleflight_hit_rate"] = rate(post.SingleflightHits()-pre.SingleflightHits(),
		post.SingleflightMisses-pre.SingleflightMisses)
	v["serve.batch_mean"] = ratio(float64(post.BatchRequests-pre.BatchRequests), float64(post.Batches-pre.Batches))
	v["serve.engine_invocations_per_req"] = float64(post.Batches-pre.Batches) / reqs
	v["serve.overloads"] = float64(post.Overloads - pre.Overloads)
	v["funccache.func_hit_rate"] = rate(post.FuncCache.Hits-pre.FuncCache.Hits, post.FuncCache.Misses-pre.FuncCache.Misses)
	v["funccache.body_hit_rate"] = rate(post.BodyCache.Hits-pre.BodyCache.Hits, post.BodyCache.Misses-pre.BodyCache.Misses)
	rwHits := post.RewriteCache.Hits - pre.RewriteCache.Hits
	rwReloc := post.RewriteCache.RelocHits - pre.RewriteCache.RelocHits
	v["funccache.rewrite_hit_rate"] = rate(rwHits+rwReloc, post.RewriteCache.Misses-pre.RewriteCache.Misses)
	v["funccache.rewrite_reloc_share"] = rate(rwReloc, rwHits)
	v["funccache.evictions_per_req"] = float64(post.FuncCache.Evictions-pre.FuncCache.Evictions) / reqs
	v["funccache.bytes"] = float64(post.FuncCache.Bytes + post.RewriteCache.Bytes)
	cache := post.SolveCache
	cache.Hits -= pre.SolveCache.Hits
	cache.Misses -= pre.SolveCache.Misses
	v["core.solve_cache_hit_rate"] = cache.HitRate()
	// color_share is over the handler time of every request, estimated
	// from the traced ones.
	setPhaseMetrics(v, ph, reqs, ratio(float64(handlerSum), float64(len(transport)))*reqs)
	replayWire(s.st, s.from, len(dr.ok), direct, tr, v)
	traced, _, _ := windowStats(dr.ops(true), elapsed)
	fmt.Fprintf(o.Report, "p50 traced %.4f ms, untraced %.4f ms\n", traced, res.Values["latency_p50_ms"])
	v["trace.overhead_ratio"] = ratio(traced, res.Values["latency_p50_ms"])
	finishTrace(o, tr, res)
	return res, nil
}

// checkSample compares every sampled response with a direct allocation
// of the same bodies (untimed): SGR and per-thread PR, SR and cost must
// match. It returns the direct allocations for the encode replay.
func checkSample(st stream, res *result, dr *driveResult) []*core.Allocation {
	samples := dr.samples
	idx := make([]int, 0, len(samples))
	for i := range samples {
		idx = append(idx, i)
	}
	sort.Ints(idx)
	if len(idx) == 0 {
		res.fail("no sampled request completed; nothing was checked against a direct allocation")
		return nil
	}
	var direct []*core.Allocation
	for _, i := range idx {
		rq, _ := st.at(i)
		funcs, err := rq.Req.Funcs()
		if err != nil {
			res.failOp("sample %d: %v", i, err)
			continue
		}
		cfg := core.Config{NReg: rq.Req.NReg}
		var al *core.Allocation
		if rq.Req.Mode == "sra" {
			al, err = core.AllocateSRA(funcs[0], rq.Req.NThd, cfg)
		} else {
			al, err = core.AllocateARA(funcs, cfg)
		}
		if err == nil {
			err = sameAllocation(samples[i], al)
		}
		if err != nil {
			res.failOp("sample %d: served vs direct: %v", i, err)
			continue
		}
		direct = append(direct, al)
	}
	return direct
}

// sameAllocation compares a served response with a direct allocation.
func sameAllocation(out *serve.Response, al *core.Allocation) error {
	if out.SGR != al.SGR || len(out.Threads) != len(al.Threads) {
		return fmt.Errorf("served sgr %d over %d threads, direct sgr %d over %d",
			out.SGR, len(out.Threads), al.SGR, len(al.Threads))
	}
	for t, wt := range out.Threads {
		dt := al.Threads[t]
		if wt.PR != dt.PR || wt.SR != dt.SR || wt.Cost != dt.Cost {
			return fmt.Errorf("thread %d: served pr/sr/cost %d/%d/%d, direct %d/%d/%d",
				t, wt.PR, wt.SR, wt.Cost, dt.PR, dt.SR, dt.Cost)
		}
	}
	return nil
}

func phaseDelta(a, b intra.PhaseStats) intra.PhaseStats {
	return intra.PhaseStats{
		BuildNS:         b.BuildNS - a.BuildNS,
		MergeNS:         b.MergeNS - a.MergeNS,
		RepairNS:        b.RepairNS - a.RepairNS,
		ColorNS:         b.ColorNS - a.ColorNS,
		RewriteNS:       b.RewriteNS - a.RewriteNS,
		RewriteCachedNS: b.RewriteCachedNS - a.RewriteCachedNS,
		ChainSteps:      b.ChainSteps - a.ChainSteps,
		Trials:          b.Trials - a.Trials,
	}
}

// rate is hits / (hits + misses), 0 when both are 0.
func rate(hits, misses int64) float64 { return ratio(float64(hits), float64(hits+misses)) }

// replayWire replays the first measured requests through the wire calls
// the handler makes — decode, FuncsCached over a body cache, and
// CanonicalKeyBy over a function cache's memoized key — and encodes the
// sampled direct allocations as responses, timing each call as a span.
func replayWire(st stream, from, sent int, direct []*core.Allocation, tr *tracer, v map[string]float64) {
	bodies := funccache.NewBodyCache(0)
	keys := funccache.New(funccache.Config{})
	var decode, compile, hash, encode []float64
	for i := from; i < from+min(sent, replayMax); i++ {
		rq, ok := st.at(i)
		if !ok {
			break
		}
		op, root := tr.newOp(), tr.newID()
		start := time.Now()
		req := new(core.WireRequest)
		var err error
		decode = append(decode, ms(timed(tr, root, op, "core.wire_decode", func() {
			dec := json.NewDecoder(bytes.NewReader(rq.Body))
			dec.DisallowUnknownFields()
			err = dec.Decode(req)
		})))
		if err != nil {
			continue
		}
		var funcs []*ir.Func
		compile = append(compile, ms(timed(tr, root, op, "core.wire_compile", func() {
			funcs, err = req.FuncsCached(bodies)
		})))
		if err != nil {
			continue
		}
		hash = append(hash, ms(timed(tr, root, op, "core.wire_hash", func() {
			req.CanonicalKeyBy(funcs, keys.FuncKey)
		})))
		tr.record(root, 0, op, "wire.replay", start, time.Now())
	}
	for _, al := range direct {
		op := tr.newOp()
		encode = append(encode, ms(timed(tr, 0, op, "core.wire_encode", func() {
			_, _ = json.Marshal(&serve.Response{WireResponse: *al.Wire(false)}) // the marshal cannot fail on this type
		})))
	}
	v["core.wire_decode_ms"] = mean(decode)
	v["core.wire_compile_ms"] = mean(compile)
	v["core.wire_hash_ms"] = mean(hash)
	v["core.wire_encode_ms"] = mean(encode)
}
