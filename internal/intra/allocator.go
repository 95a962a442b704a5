package intra

import (
	"fmt"
	"sync/atomic"
	"time"

	"npra/internal/core/errs"
	"npra/internal/estimate"
	"npra/internal/ig"
	"npra/internal/ir"
	"npra/internal/loops"
	"npra/internal/parallel"
)

// Allocator solves intra-thread allocations for one function at any
// requested (PR, SR) budget, memoizing both the chain of color-elimination
// contexts (the paper's "incremental" intra allocator that records its
// contexts) and whole Solve results per (pr, sr) point, so the
// inter-thread allocator's repeated cost probes are cheap; CacheStats
// exposes the Solve-point hit/miss counters and PhaseStats the per-phase
// wall-clock breakdown.
//
// Contexts placed in the memo are never mutated again. Candidate
// eliminations run on contexts drawn from a per-allocator scratch pool
// (copied from the cached neighbor, storage reused across candidates);
// the winning candidate leaves the pool for the memo. The allocator is
// not safe for concurrent use; the only goroutines it starts are
// bestStep's trial lanes, which it waits for.
type Allocator struct {
	F   *ir.Func
	A   *ig.Analysis
	Est *estimate.Estimate

	// Workers bounds the lanes one chain step prices its candidate colors
	// on; 0 or 1 prices them on the calling goroutine. Every value yields
	// the same contexts, Solutions, errors, cache counters and trial and
	// chain-step counts. Set it between Solve calls, never during one.
	Workers int

	// DisableCoalesce turns off the unnecessary-move elimination pass
	// after each color elimination (for ablation studies). Set before the
	// first Solve call.
	DisableCoalesce bool

	// DisableIncremental forces every MoveCost evaluation through the
	// from-scratch edge walk instead of the incremental per-variable
	// re-pricing. The two must agree bit-for-bit; the warm-start
	// differential tests run one allocator in each mode and compare. Set
	// before the first Solve call.
	DisableIncremental bool

	weights []int64 // nil = static move counting

	memo    map[[2]int]*Context // (cap, size) -> context
	memoErr map[[2]int]error

	// Solve-point cache: the inter-thread greedy loop re-probes the same
	// (pr, sr) budgets round after round (Option A re-prices pr[i]-1
	// every iteration until it is taken; Option B re-prices sr[i]-1), so
	// Solve memoizes whole Solutions — and their infeasibility errors —
	// keyed by the *requested* budget, before any clamping.
	sols    map[[2]int]*Solution
	solErrs map[[2]int]error
	stats   CacheStats

	pool   []*Context // scratch contexts recycled across bestStep trials
	phases PhaseStats
}

// CacheStats counts Solve-point cache hits and misses. A hit means the
// exact (pr, sr) budget was priced before and the cached Solution (or
// infeasibility) was returned without touching the context chain.
type CacheStats struct {
	Hits, Misses int
}

// HitRate returns Hits/(Hits+Misses), or 0 before the first Solve.
func (s CacheStats) HitRate() float64 {
	if s.Hits+s.Misses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Hits+s.Misses)
}

// Add accumulates other into s (for summing per-thread allocators).
func (s *CacheStats) Add(other CacheStats) {
	s.Hits += other.Hits
	s.Misses += other.Misses
}

// CacheStats returns the allocator's Solve-point cache counters.
func (al *Allocator) CacheStats() CacheStats { return al.stats }

// PhaseStats attributes an allocator's wall-clock time to the pipeline
// phases of one intra-thread allocation: analysis construction, the two
// halves of bound estimation, and the chain derivation that answers
// Solve queries. RewriteNS stays zero here; callers that rewrite code
// (e.g. the inter-thread allocator's finalize step) fill it when
// aggregating.
type PhaseStats struct {
	BuildNS         int64 // liveness + NSR + interference analysis (New only)
	MergeNS         int64 // estimation: BIG + per-NSR IIG colorings
	RepairNS        int64 // estimation: conflict-edge repair
	ColorNS         int64 // chain derivation: demote/vacate trials + coalesce
	RewriteNS       int64 // code rewriting emitted fresh (filled by rewriting callers)
	RewriteCachedNS int64 // code rewriting served from a rewrite cache (lookup + relocation)

	ChainSteps int // contexts derived and memoized
	Trials     int // candidate color eliminations attempted
}

// Add accumulates other into s (for summing per-thread allocators).
func (s *PhaseStats) Add(other PhaseStats) {
	s.BuildNS += other.BuildNS
	s.MergeNS += other.MergeNS
	s.RepairNS += other.RepairNS
	s.ColorNS += other.ColorNS
	s.RewriteNS += other.RewriteNS
	s.RewriteCachedNS += other.RewriteCachedNS
	s.ChainSteps += other.ChainSteps
	s.Trials += other.Trials
}

// TotalNS returns the sum over all timed phases.
func (s PhaseStats) TotalNS() int64 {
	return s.BuildNS + s.MergeNS + s.RepairNS + s.ColorNS + s.RewriteNS + s.RewriteCachedNS
}

// PhaseStats returns the allocator's per-phase timing counters.
func (al *Allocator) PhaseStats() PhaseStats { return al.phases }

// ResetStats zeroes the cache and phase counters without touching the
// memo tables. A warm cache (internal/funccache) calls it when pooling
// an allocator so that counters read from a checked-out allocator
// always cover the current run only: work done before the checkout was
// already reported by the runs that did it, and a fresh allocator's
// creation-time counters (BuildNS from New, MergeNS/RepairNS from
// NewFromAnalysis) are the current run's work by the same rule.
func (al *Allocator) ResetStats() {
	al.stats = CacheStats{}
	al.phases = PhaseStats{}
}

// MemoSize reports the allocator's memo population: contexts counts the
// derivation chain entries (including memoized infeasibilities), sols
// the Solve-point results (including memoized infeasibilities). The
// function cache uses it to decide whether a checked-out allocator is
// warm and to estimate entry footprints.
func (al *Allocator) MemoSize() (contexts, sols int) {
	return len(al.memo) + len(al.memoErr), len(al.sols) + len(al.solErrs)
}

// Footprint estimates the allocator's retained memory in bytes: the
// memoized context chain dominates (per context: the slot-indexed
// pieceOf, the occ rows, the per-color point sets and the piece point
// sets), plus the scratch pool and the analysis's slot tables, which
// every context shares and which are counted once. It is an accounting
// estimate for cache bounds and metrics, not an exact measurement.
func (al *Allocator) Footprint() int64 {
	var total int64
	for _, ctx := range al.memo {
		total += ctx.footprint()
	}
	// Scratch pool contexts mirror the live chain tip's footprint.
	if n := len(al.pool); n > 0 && len(al.memo) > 0 {
		total += int64(n) * (total / int64(len(al.memo)))
	}
	total += al.A.SlotBytes()
	total += int64(len(al.sols)+len(al.solErrs)) * 64
	return total
}

// pieceBytes is a piece's fixed cost on 64-bit hosts: the Piece struct
// (its allocation size class) plus its slot in Pieces.
const pieceBytes = 48 + 8

// footprint estimates one context's retained bytes, by the capacity of
// its arrays.
func (ctx *Context) footprint() int64 {
	n := int64(cap(ctx.pieceOf))*4 + int64(cap(ctx.occ)+cap(ctx.colPts))*8
	for _, p := range ctx.Pieces {
		n += int64(cap(p.Points))*8 + pieceBytes
	}
	return n
}

// Absorb merges other's memo tables into al: contexts and Solve points
// other computed that al has not. Both allocators must be built over
// the same analysis (the merged contexts reference it) and the same
// objective; Solve determinism makes entries for equal keys
// interchangeable, so only missing keys are copied. Memoized contexts
// are never mutated after insertion, which is what makes sharing them
// across allocators sound. The absorbed allocator must not be used
// concurrently with the call; its counters are not carried over.
func (al *Allocator) Absorb(other *Allocator) error {
	if other == nil || other == al {
		return nil
	}
	if other.A != al.A {
		return errs.Invalidf("intra: Absorb across distinct analyses")
	}
	if other.DisableCoalesce != al.DisableCoalesce || other.DisableIncremental != al.DisableIncremental {
		return errs.Invalidf("intra: Absorb across distinct allocator modes")
	}
	if (other.weights == nil) != (al.weights == nil) {
		return errs.Invalidf("intra: Absorb across distinct objectives")
	}
	for key, ctx := range other.memo { //lint:ignore detlint keyed merge of missing entries; insertion order never observable
		if _, ok := al.memo[key]; !ok {
			al.memo[key] = ctx
		}
	}
	for key, err := range other.memoErr { //lint:ignore detlint keyed merge of missing entries; insertion order never observable
		if _, ok := al.memoErr[key]; !ok {
			al.memoErr[key] = err
		}
	}
	for key, sol := range other.sols { //lint:ignore detlint keyed merge of missing entries; insertion order never observable
		if _, ok := al.sols[key]; !ok {
			al.sols[key] = sol
		}
	}
	for key, err := range other.solErrs { //lint:ignore detlint keyed merge of missing entries; insertion order never observable
		if _, ok := al.solErrs[key]; !ok {
			al.solErrs[key] = err
		}
	}
	return nil
}

// Solution is a successful intra-thread allocation for a (PR, SR) budget.
type Solution struct {
	Ctx    *Context
	PR, SR int // the requested budget
	Cost   int // moves the rewriter will insert
}

// New analyzes f and returns an allocator for it. The error path is the
// bound-estimation invariant check (estimate.ErrBoundsInverted); inputs
// that analyze cleanly never fail.
func New(f *ir.Func) (*Allocator, error) {
	start := time.Now() //lint:ignore detlint phase-timing observability only; duration never feeds an allocation decision
	a := ig.Analyze(f)
	buildNS := time.Since(start).Nanoseconds()
	al, err := NewFromAnalysis(a)
	if err != nil {
		return nil, err
	}
	al.phases.BuildNS = buildNS
	return al, nil
}

// MustNew is New for known-good inputs (tests, examples, benchmarks);
// it panics on estimation failure.
func MustNew(f *ir.Func) *Allocator {
	al, err := New(f)
	if err != nil {
		panic("intra: MustNew: " + err.Error())
	}
	return al
}

// NewFromAnalysis returns an allocator over an existing analysis.
func NewFromAnalysis(a *ig.Analysis) (*Allocator, error) {
	est, estStats, err := estimate.ComputeWithStats(a)
	if err != nil {
		return nil, err
	}
	al := &Allocator{
		F: a.F, A: a, Est: est,
		memo:    make(map[[2]int]*Context),
		memoErr: make(map[[2]int]error),
		sols:    make(map[[2]int]*Solution),
		solErrs: make(map[[2]int]error),
	}
	al.phases.MergeNS = estStats.MergeNS
	al.phases.RepairNS = estStats.RepairNS
	return al, nil
}

// Bounds returns the thread's register requirement bounds.
func (al *Allocator) Bounds() estimate.Bounds { return al.Est.Bounds }

// UseLoopWeights switches the move-minimization objective from the
// paper's static count to a loop-depth-weighted estimate of the dynamic
// count (10x per nesting level). It fails with an ErrInvalid-wrapped
// error when called after the first Solve: changing the objective would
// silently disagree with the memoized context chain.
func (al *Allocator) UseLoopWeights() error {
	if len(al.memo) > 0 || len(al.sols) > 0 {
		return errs.Invalidf("intra: UseLoopWeights after solving")
	}
	li, err := loops.Compute(al.F)
	if err != nil {
		return err
	}
	w := make([]int64, al.F.NumPoints())
	for p := range w {
		w[p] = li.PointWeight(p)
	}
	al.weights = w
	return nil
}

// Solve returns an allocation in which values crossing context switches
// use at most pr colors and all values use at most pr+sr colors. It fails
// with an infeasible error when the budget is below the achievable
// minimum (MinPR/MinR in the common case). Results are memoized per
// (pr, sr): repeated probes of the same budget return the same *Solution,
// which callers must treat as read-only.
func (al *Allocator) Solve(pr, sr int) (*Solution, error) {
	key := [2]int{pr, sr}
	if sol, ok := al.sols[key]; ok {
		al.stats.Hits++
		return sol, nil
	}
	if err, ok := al.solErrs[key]; ok {
		al.stats.Hits++
		return nil, err
	}
	al.stats.Misses++
	sol, err := al.solve(pr, sr)
	if err != nil {
		al.solErrs[key] = err
		return nil, err
	}
	al.sols[key] = sol
	return sol, nil
}

func (al *Allocator) solve(pr, sr int) (*Solution, error) {
	if pr < 0 || sr < 0 {
		return nil, errInfeasible{fmt.Sprintf("negative budget PR=%d SR=%d", pr, sr)}
	}
	capTarget := pr
	if capTarget > al.Est.MaxPR {
		capTarget = al.Est.MaxPR
	}
	sizeTarget := pr + sr
	if sizeTarget > al.Est.MaxR {
		sizeTarget = al.Est.MaxR
	}
	if sizeTarget < capTarget {
		sizeTarget = capTarget
	}
	ctx, err := al.context(capTarget, sizeTarget)
	if err != nil {
		return nil, err
	}
	return &Solution{Ctx: ctx, PR: pr, SR: sr, Cost: ctx.MoveCost()}, nil
}

// context returns the memoized context for the requested palette. The
// canonical derivation path demotes the private-capable cap from MaxPR
// down to the target first (at full palette size), then shrinks the
// palette size one color at a time.
func (al *Allocator) context(cap, size int) (*Context, error) {
	key := [2]int{cap, size}
	if ctx, ok := al.memo[key]; ok {
		return ctx, nil
	}
	if err, ok := al.memoErr[key]; ok {
		return nil, err
	}
	ctx, err := al.buildContext(cap, size)
	if err != nil {
		al.memoErr[key] = err
		return nil, err
	}
	al.memo[key] = ctx
	al.phases.ChainSteps++
	return ctx, nil
}

func (al *Allocator) buildContext(cap, size int) (*Context, error) {
	maxPR, maxR := al.Est.MaxPR, al.Est.MaxR
	switch {
	case cap == maxPR && size == maxR:
		ctx := newContext(al.A, al.Est.Colors, cap, size, al.weights)
		ctx.noIncr = al.DisableIncremental
		ctx.MoveCost() // prime the incremental snapshot for derivations
		return ctx, nil
	case cap < 0 || size < cap || size > maxR || cap > maxPR:
		return nil, errInfeasible{fmt.Sprintf("palette cap=%d size=%d outside [%d,%d]", cap, size, maxPR, maxR)}
	case size == maxR: // cap < maxPR: demote one private-capable color
		prev, err := al.context(cap+1, size)
		if err != nil {
			return nil, err
		}
		return al.bestStep(prev, 0, prev.Cap, (*Context).demoteColor)
	default: // size < maxR: eliminate one color
		prev, err := al.context(cap, size+1)
		if err != nil {
			return nil, err
		}
		// Candidates start at the requested cap: eliminating a color from
		// the private prefix might be cheap now but can make deeper
		// targets falsely infeasible (the prefix is this palette's
		// contract with the crossing pieces).
		return al.bestStep(prev, cap, prev.Size, (*Context).vacateColor)
	}
}

// takeScratch returns a scratch context from the pool, or a fresh one
// when the pool is empty. Its contents are stale until copyFrom.
func (al *Allocator) takeScratch() *Context {
	n := len(al.pool)
	if n == 0 {
		return &Context{}
	}
	c := al.pool[n-1]
	al.pool = al.pool[:n-1]
	return c
}

func (al *Allocator) putScratch(c *Context) { al.pool = append(al.pool, c) }

// bestStep tries the given elimination on every candidate color in
// [lo, hi) of a scratch copy of prev and keeps the cheapest successful
// result, mirroring the paper's greedy "try each color, keep the minimum
// cost" loops in Reduce_PR/Reduce_SR. The trials are independent, so up
// to Workers lanes run them, reading prev only. The lowest (cost, color)
// over the lanes' bests is the serial loop's winner; when every trial
// fails, the lowest failing color's error is the serial loop's first.
// Losing (and failed) trials return their storage to the scratch pool;
// the winner leaves the pool for good, since the caller memoizes it and
// memoized contexts are never mutated.
func (al *Allocator) bestStep(prev *Context, lo, hi int, step func(*Context, int) error) (*Context, error) {
	start := time.Now() //lint:ignore detlint phase-timing observability only; duration never feeds an allocation decision
	n := max(hi-lo, 0)
	lanes := make([]trialLane, min(max(al.Workers, 1), n))
	for i := range lanes {
		lanes[i] = trialLane{trial: al.takeScratch(), best: al.takeScratch(), bestColor: -1}
	}
	var next atomic.Int64
	coalesce := !al.DisableCoalesce
	parallel.ForEach(len(lanes), len(lanes), func(i int) {
		lanes[i].run(prev, lo, hi, &next, step, coalesce)
	})
	al.phases.Trials += n

	var win, failed *trialLane
	for i := range lanes {
		ln := &lanes[i]
		if ln.bestColor >= 0 && (win == nil || ln.bestCost < win.bestCost ||
			ln.bestCost == win.bestCost && ln.bestColor < win.bestColor) {
			win = ln
		}
		if ln.err != nil && (failed == nil || ln.errColor < failed.errColor) {
			failed = ln
		}
	}
	for i := range lanes {
		al.putScratch(lanes[i].trial)
		if &lanes[i] != win {
			al.putScratch(lanes[i].best)
		}
	}
	al.phases.ColorNS += time.Since(start).Nanoseconds()
	switch {
	case win != nil:
		return win.best, nil
	case failed != nil:
		return nil, failed.err
	default:
		return nil, errInfeasible{"no candidate colors"}
	}
}

// trialLane is one bestStep worker. It draws candidate colors in
// ascending order from a counter shared with the other lanes, runs each
// trial on its own scratch context and keeps its cheapest success in
// best, swapping the two contexts instead of copying.
type trialLane struct {
	trial, best *Context
	bestCost    int
	bestColor   int // -1 until a trial succeeds
	err         error
	errColor    int // the color err came from: the lane's lowest failure
}

func (ln *trialLane) run(prev *Context, lo, hi int, next *atomic.Int64, step func(*Context, int) error, coalesce bool) {
	for c := lo + int(next.Add(1)) - 1; c < hi; c = lo + int(next.Add(1)) - 1 {
		ln.trial.copyFrom(prev)
		if err := step(ln.trial, c); err != nil {
			if ln.err == nil {
				ln.err, ln.errColor = err, c
			}
			continue
		}
		if coalesce {
			ln.trial.coalesce()
		}
		// Colors arrive in ascending order, so strict < keeps the lowest
		// color among the lane's equal-cost trials.
		if cost := ln.trial.MoveCost(); ln.bestColor < 0 || cost < ln.bestCost {
			ln.trial, ln.best = ln.best, ln.trial
			ln.bestCost, ln.bestColor = cost, c
		}
	}
}
