package main

// paper-pressure: the paper's own workload with the register budget made
// tight. Every point is allocated cold through the library entry points
// with the default core.Config (no caches), so each call pays analysis,
// estimation, Reduce-PR/Reduce-SR chain coloring and rewriting.

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"time"

	"npra/internal/bench"
	"npra/internal/core"
	"npra/internal/estimate"
	"npra/internal/ig"
	"npra/internal/interp"
	"npra/internal/intra"
	"npra/internal/ir"
	"npra/internal/sim"
)

const (
	paperPackets = 64 // packets per thread, as in the paper's tables
	sraThreads   = 4  // hardware threads per PU in the SRA points
	setupRepeats = 3  // set-ups per run; setup_s is their median
	interpSteps  = 1 << 24
)

// paperScenarios are Table 3's ARA mixes with their critical threads.
var paperScenarios = []struct {
	name     string
	benches  []string
	critical []bool
}{
	{"S1", []string{"md5", "md5", "fir2dim", "fir2dim"}, []bool{true, true, false, false}},
	{"S2", []string{"l2l3fwd_recv", "l2l3fwd_send", "md5", "md5"}, []bool{false, false, true, true}},
	{"S3", []string{"wraps_recv", "wraps_send", "fir2dim", "frag"}, []bool{true, true, false, false}},
}

// point is one allocation of the workload: a thread mix and a budget.
type point struct {
	Label    string // S1, S2, S3 or the SRA kernel name
	SRA      bool
	NReg     int
	Benches  []string   // one per hardware thread
	Critical []bool     // one per hardware thread
	Funcs    []*ir.Func // ARA: one per thread; SRA: the one shared body
}

func (p *point) allocate() (*core.Allocation, error) {
	cfg := core.Config{NReg: p.NReg}
	if p.SRA {
		return core.AllocateSRACtx(context.Background(), p.Funcs[0], sraThreads, cfg)
	}
	return core.AllocateARACtx(context.Background(), p.Funcs, cfg)
}

// bounds runs the analysis and estimation layers on one body.
func bounds(f *ir.Func) (estimate.Bounds, error) {
	est, err := estimate.Compute(ig.Analyze(f))
	if err != nil {
		return estimate.Bounds{}, err
	}
	return est.Bounds, nil
}

// araBand returns an ARA mix's pressure band: from the move-free demand
// sum(MaxPR) + max(MaxSR) down to the splitting lower bound
// sum(MinPR) + max(MinR - MinPR).
func araBand(bs []estimate.Bounds) (top, bottom int) {
	maxSR, minSR := 0, 0
	for _, b := range bs {
		top += b.MaxPR
		bottom += b.MinPR
		maxSR = max(maxSR, b.MaxSR())
		minSR = max(minSR, b.MinR-b.MinPR)
	}
	return top + maxSR, bottom + minSR
}

// sraBand is the same band for n copies of one body.
func sraBand(b estimate.Bounds, n int) (top, bottom int) {
	return n*b.MaxPR + b.MaxSR(), n*b.MinPR + b.MinR - b.MinPR
}

// paperPoints builds the workload: each Table 3 scenario at every NReg
// of its band, and each paper kernel with a non-empty SRA band at the
// top, middle and bottom of it.
func paperPoints() ([]*point, error) {
	memo := make(map[string]estimate.Bounds)
	boundsOf := func(name string, f *ir.Func) (estimate.Bounds, error) {
		if b, ok := memo[name]; ok {
			return b, nil
		}
		b, err := bounds(f)
		if err != nil {
			return b, fmt.Errorf("%s: %w", name, err)
		}
		memo[name] = b
		return b, nil
	}
	var pts []*point
	for _, sc := range paperScenarios {
		funcs := make([]*ir.Func, len(sc.benches))
		bs := make([]estimate.Bounds, len(sc.benches))
		for i, name := range sc.benches {
			b, err := bench.Get(name)
			if err != nil {
				return nil, err
			}
			funcs[i] = b.Gen(paperPackets)
			if bs[i], err = boundsOf(name, funcs[i]); err != nil {
				return nil, err
			}
		}
		top, bottom := araBand(bs)
		for n := top; n >= bottom; n-- {
			pts = append(pts, &point{Label: sc.name, NReg: n, Benches: sc.benches,
				Critical: sc.critical, Funcs: funcs})
		}
	}
	for _, b := range bench.Paper() {
		f := b.Gen(paperPackets)
		bd, err := boundsOf(b.Name, f)
		if err != nil {
			return nil, err
		}
		top, bottom := sraBand(bd, sraThreads)
		if top <= bottom {
			continue
		}
		benches := make([]string, sraThreads)
		for i := range benches {
			benches[i] = b.Name
		}
		for _, n := range []int{top, (top + bottom) / 2, bottom} {
			pts = append(pts, &point{Label: b.Name, SRA: true, NReg: n, Benches: benches,
				Critical: make([]bool, sraThreads), Funcs: []*ir.Func{f}})
		}
	}
	return pts, nil
}

// paperSetup is one set-up of the workload: the points and one warm-up
// allocation of each, which is also the reference result every timed
// allocation of that point must reproduce.
type paperSetup struct {
	points []*point
	ref    []*core.Allocation
	refErr []error
}

func newPaperSetup() (*paperSetup, error) {
	pts, err := paperPoints()
	if err != nil {
		return nil, err
	}
	s := &paperSetup{points: pts, ref: make([]*core.Allocation, len(pts)), refErr: make([]error, len(pts))}
	for i, p := range pts {
		s.ref[i], s.refErr[i] = p.allocate()
	}
	return s, nil
}

// signature is the part of an allocation that must not vary between
// runs of the same point.
func signature(al *core.Allocation) string {
	sig := fmt.Sprintf("sgr=%d", al.SGR)
	for _, t := range al.Threads {
		sig += fmt.Sprintf(" %d/%d/%d/%d/%d", t.PR, t.SR, t.Cost, t.Stats.Added(), t.PrivBase)
	}
	return sig
}

// paperOp is one timed allocation.
type paperOp struct {
	LatNS  int64
	Traced bool
	Phases intra.PhaseStats
	Cache  intra.CacheStats
}

// measure allocates points closed-loop from one client, in seed-derived
// passes over all points, until the deadline. Each result is checked
// against the point's reference. With a tracer, a sampled half of the
// calls is recorded as core.alloc spans. It returns the calls and the
// wall time of every complete pass.
func (s *paperSetup) measure(rng *rand.Rand, until time.Time, tr *tracer, res *result) ([]paperOp, []float64) {
	refSig := make([]string, len(s.ref))
	for i, al := range s.ref {
		if al != nil {
			refSig[i] = signature(al)
		}
	}
	var ops []paperOp
	var passes []float64
	for {
		passStart := time.Now()
		for _, i := range rng.Perm(len(s.points)) {
			if !time.Now().Before(until) {
				return ops, passes
			}
			p := s.points[i]
			traced := tr != nil && sampled(res.Attempted)
			var op, id int64
			if traced {
				op, id = tr.newOp(), tr.newID()
			}
			start := time.Now()
			al, err := p.allocate()
			end := time.Now()
			if traced {
				tr.record(id, 0, op, "core.alloc", start, end)
			}
			res.Attempted++
			switch {
			case err != nil:
				res.failOp("%s@%d: %v", p.Label, p.NReg, err)
				continue
			case al.Degraded:
				res.failOp("%s@%d: degraded (%v)", p.Label, p.NReg, al.Cause)
				continue
			case signature(al) != refSig[i]:
				res.failOp("%s@%d: result %s differs from the reference %s", p.Label, p.NReg, signature(al), refSig[i])
				continue
			}
			ops = append(ops, paperOp{LatNS: end.Sub(start).Nanoseconds(), Traced: traced,
				Phases: al.Phases, Cache: al.SolveCache})
		}
		passes = append(passes, time.Since(passStart).Seconds())
	}
}

// checkStats is what the check step measured.
type checkStats struct {
	Moves         int
	Crit, NonCrit []float64 // cycles per packet of ARA threads
	SimNS         int64
	SimCycles     int64
	SimIdle       int64
	VerifyMS      []float64
	InterpMS      []float64
}

// check runs the check step over every point's reference allocation:
// Verify, not degraded, a sim run with every private range protected
// (a cross-thread clobber aborts it) and interp equivalence of each
// rewritten thread with its virtual-register original. It prints the
// per-point table and returns the quality figures; failures are
// recorded in res.
func (s *paperSetup) check(w io.Writer, tr *tracer, res *result) checkStats {
	var cs checkStats
	orig := make(map[string]*interp.Result) // bench/tid -> original run
	fmt.Fprintf(w, "%-8s %4s %4s %-3s %-13s %4s %4s %5s %9s\n",
		"point", "mode", "nreg", "thr", "bench", "PR", "SR", "moves", "cyc/pkt")
	for i, p := range s.points {
		al, err := s.ref[i], s.refErr[i]
		if err != nil {
			res.failOp("%s@%d: reference allocation: %v", p.Label, p.NReg, err)
			continue
		}
		var op, root int64
		if tr != nil {
			op, root = tr.newOp(), tr.newID()
		}
		start := time.Now()
		if al.Degraded {
			res.failOp("%s@%d: degraded (%v)", p.Label, p.NReg, al.Cause)
		}
		var verr error
		cs.VerifyMS = append(cs.VerifyMS, ms(timed(tr, root, op, "core.verify", func() { verr = al.Verify() })))
		if verr != nil {
			res.failOp("%s@%d: Verify: %v", p.Label, p.NReg, verr)
		}
		var sr *sim.Result
		var serr error
		simD := timed(tr, root, op, "sim.run", func() { sr, serr = simulate(p, al) })
		if serr != nil {
			res.failOp("%s@%d: sim: %v", p.Label, p.NReg, serr)
			continue
		}
		cs.SimNS += simD.Nanoseconds()
		cs.SimCycles += sr.Cycles
		cs.SimIdle += sr.Idle
		var ierr error
		cs.InterpMS = append(cs.InterpMS, ms(timed(tr, root, op, "interp.check", func() { ierr = equivalent(p, al, orig) })))
		if ierr != nil {
			res.failOp("%s@%d: %v", p.Label, p.NReg, ierr)
		}
		if tr != nil {
			tr.record(root, 0, op, "check.point", start, time.Now())
		}
		mode := "ara"
		if p.SRA {
			mode = "sra"
		}
		for ti, t := range al.Threads {
			cyc := sr.Threads[ti].CyclesPerIter()
			cs.Moves += t.Stats.Added()
			if !p.SRA {
				if p.Critical[ti] {
					cs.Crit = append(cs.Crit, cyc)
				} else {
					cs.NonCrit = append(cs.NonCrit, cyc)
				}
			}
			crit := " "
			if p.Critical[ti] {
				crit = "*"
			}
			fmt.Fprintf(w, "%-8s %4s %4d %-3d %s%-12s %4d %4d %5d %9.2f\n",
				p.Label, mode, p.NReg, ti, crit, p.Benches[ti], t.PR, t.SR, t.Stats.Added(), cyc)
		}
	}
	return cs
}

// simulate runs an allocation on the cycle model with each thread's
// private range armed: a write into another thread's range is an error.
func simulate(p *point, al *core.Allocation) (*sim.Result, error) {
	threads := make([]*sim.Thread, len(al.Threads))
	for i, t := range al.Threads {
		threads[i] = &sim.Thread{F: t.F, ProtectLo: t.PrivBase, ProtectHi: t.PrivBase + t.PR}
	}
	r, err := sim.Run(threads, sim.Config{NReg: p.NReg, MemWords: bench.MemWords})
	if err != nil {
		return nil, err
	}
	for i, th := range r.Threads {
		if !th.Halted || th.Iters != paperPackets {
			return nil, fmt.Errorf("thread %d: halted %v after %d of %d packets", i, th.Halted, th.Iters, paperPackets)
		}
	}
	return r, nil
}

// equivalent checks every rewritten thread against its virtual-register
// original on the reference interpreter (originals are run once per
// bench and thread id and memoized in orig).
func equivalent(p *point, al *core.Allocation, orig map[string]*interp.Result) error {
	for i, t := range al.Threads {
		f := p.Funcs[0]
		if !p.SRA {
			f = p.Funcs[i]
		}
		key := fmt.Sprintf("%s/%d", p.Benches[i], i)
		want, ok := orig[key]
		if !ok {
			var err error
			want, err = interp.Run(f, make([]uint32, bench.MemWords), interp.Options{TID: uint32(i), MaxSteps: interpSteps})
			if err != nil || !want.Halted {
				return fmt.Errorf("thread %d: original did not run to halt: %v", i, err)
			}
			orig[key] = want
		}
		got, err := interp.Run(t.F, make([]uint32, bench.MemWords), interp.Options{TID: uint32(i), MaxSteps: interpSteps})
		if err != nil {
			return fmt.Errorf("thread %d: rewritten code: %v", i, err)
		}
		if err := interp.Equivalent(want, got); err != nil {
			return fmt.Errorf("thread %d: not equivalent to the original: %v", i, err)
		}
	}
	return nil
}

// setQuality stores the three quality figures of a check step.
func setQuality(res *result, cs checkStats) {
	res.Values["moves_inserted"] = float64(cs.Moves)
	res.Values["crit_cycles_per_pkt"] = geomean(cs.Crit)
	res.Values["noncrit_cycles_per_pkt"] = geomean(cs.NonCrit)
}

// qualityProbe allocates every paper-pressure point once and runs the
// check step, so that every workload reports the paper's quality axis
// beside its own latency. It is untimed and runs after the window.
func qualityProbe(o options, res *result) error {
	s, err := newPaperSetup()
	if err != nil {
		return err
	}
	fmt.Fprintln(o.Report, "quality probe (paper-pressure points):")
	setQuality(res, s.check(o.Report, nil, res))
	return nil
}

func runPaper(o options) (*result, error) {
	res := newResult()
	s, _, setupS, err := setupMedian(setupRepeats, func() (*paperSetup, func(), error) {
		s, err := newPaperSetup()
		return s, func() {}, err
	})
	if err != nil {
		return nil, err
	}
	res.Values["setup_s"] = setupS
	fmt.Fprintf(o.Report, "%d points (%d ARA, %d SRA)\n", len(s.points), countARA(s.points), len(s.points)-countARA(s.points))
	rng := rand.New(rand.NewSource(o.Seed))

	var tr *tracer
	if o.Trace {
		tr = newTracer()
	}
	start := time.Now()
	ops, passes := s.measure(rng, start.Add(o.Window), tr, res)
	elapsed := time.Since(start)

	// End-to-end latency is over the untraced calls; a traced run's
	// sampled calls give the per-layer figures.
	var lat, tlat []float64
	var ph intra.PhaseStats
	var cache intra.CacheStats
	var trials, allocNS, greedyNS int64
	var traced float64
	for _, op := range ops {
		trials += int64(op.Phases.Trials)
		if !op.Traced {
			lat = append(lat, nsToMS(op.LatNS))
			continue
		}
		tlat = append(tlat, nsToMS(op.LatNS))
		traced++
		ph.Add(op.Phases)
		cache.Add(op.Cache)
		allocNS += op.LatNS
		greedyNS += op.LatNS - op.Phases.TotalNS()
	}
	// Every pass allocates each point once, so the median pass time is
	// the throughput figure least moved by a transient stall.
	v := res.Values
	v["latency_p50_ms"] = percentile(lat, 0.5)
	v["latency_p99_ms"] = percentile(lat, 0.99)
	v["throughput_ops_s"] = float64(len(ops)) / elapsed.Seconds()
	if len(passes) > 0 {
		v["throughput_ops_s"] = float64(len(s.points)) / median(passes)
	}
	fmt.Fprintf(o.Report, "%d timed allocations (%d untraced) in %v, %d complete passes\n",
		len(ops), len(lat), elapsed.Round(time.Millisecond), len(passes))
	if trials == 0 {
		res.fail("pressure gate: intra.trials_per_op is 0; the budgets no longer force Reduce-PR/SR")
	}

	cs := s.check(o.Report, tr, res)
	setQuality(res, cs)

	if o.Trace {
		n := max(traced, 1)
		v["core.alloc_p50_ms"] = percentile(tlat, 0.5)
		v["core.alloc_p99_ms"] = percentile(tlat, 0.99)
		v["core.greedy_self_ms"] = nsToMS(greedyNS) / n
		v["core.solve_cache_hit_rate"] = cache.HitRate()
		setPhaseMetrics(v, ph, n, float64(allocNS))
		v["sim.ns_per_cycle"] = ratio(float64(cs.SimNS), float64(cs.SimCycles))
		v["sim.idle_share"] = ratio(float64(cs.SimIdle), float64(cs.SimCycles))
		v["core.verify_ms"] = mean(cs.VerifyMS)
		v["interp.check_ms"] = mean(cs.InterpMS)
		v["trace.overhead_ratio"] = ratio(v["core.alloc_p50_ms"], v["latency_p50_ms"])
		finishTrace(o, tr, res)
	}
	return res, nil
}

// setPhaseMetrics fills the intra/estimate/ig per-op metrics from the
// engine's phase counters over n operations whose measured spans sum to
// spanNS.
func setPhaseMetrics(v map[string]float64, ph intra.PhaseStats, n, spanNS float64) {
	v["intra.color_ms"] = nsToMS(ph.ColorNS) / n
	v["intra.color_share"] = ratio(float64(ph.ColorNS), spanNS)
	v["intra.trials_per_op"] = float64(ph.Trials) / n
	v["intra.chain_steps_per_op"] = float64(ph.ChainSteps) / n
	v["intra.rewrite_ms"] = nsToMS(ph.RewriteNS) / n
	v["intra.rewrite_cached_ms"] = nsToMS(ph.RewriteCachedNS) / n
	v["estimate.merge_ms"] = nsToMS(ph.MergeNS) / n
	v["estimate.repair_ms"] = nsToMS(ph.RepairNS) / n
	v["ig.build_ms"] = nsToMS(ph.BuildNS) / n
}

func countARA(pts []*point) int {
	n := 0
	for _, p := range pts {
		if !p.SRA {
			n++
		}
	}
	return n
}
