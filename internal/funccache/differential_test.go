package funccache

// Warm-vs-cold differential: the tentpole's correctness bar is that a
// warm allocation is bit-identical to a cold one. These tests drive the
// real engine (core.AllocateARA/SRA) with a shared Cache across a
// kernel-mix request stream and require identical grants, byte-for-byte
// identical rewrites, and interpreter-level behavioral equivalence —
// serially over 100 seeded requests, and concurrently (for -race) with
// duplicate kernels interleaved across goroutines.

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"npra/internal/core"
	"npra/internal/interp"
	"npra/internal/ir"
	"npra/internal/progen"
)

// mixFuncs builds request i of a deterministic kernel-mix stream over a
// pool of poolSize kernels: 1..3 threads whose kernel indices are the
// mixed-radix digits of i. Every call regenerates fresh *ir.Func values
// (content keying, not pointer identity, must carry the reuse).
func mixFuncs(i int64, poolSize int64) []*ir.Func {
	nthreads := 1 + int(i)%3
	x := i / 3
	funcs := make([]*ir.Func, nthreads)
	for t := 0; t < nthreads; t++ {
		seed := 500 + x%poolSize
		x /= poolSize
		f := progen.GenerateStructured(rand.New(rand.NewSource(seed)), progen.StructuredConfig{
			MaxDepth: 2, MaxBodyLen: 8, MaxTripCnt: 4, MaxVars: 8, CSBDensity: 0.25, StoreWindow: 64,
		})
		f.Name = fmt.Sprintf("kernel%d", seed)
		funcs[t] = f
	}
	return funcs
}

// diffAllocs demands bit-identical allocations: equal grants, equal
// costs, byte-identical rewrites, and (interpreting each rewritten
// thread) observationally equal executions.
func diffAllocs(cold, warm *core.Allocation) error {
	if cold.Degraded || warm.Degraded {
		return fmt.Errorf("degraded result reached the differential (cold %v, warm %v)", cold.Degraded, warm.Degraded)
	}
	if cold.SGR != warm.SGR || cold.NReg != warm.NReg {
		return fmt.Errorf("cold (sgr %d) vs warm (sgr %d)", cold.SGR, warm.SGR)
	}
	if len(cold.Threads) != len(warm.Threads) {
		return fmt.Errorf("cold %d threads vs warm %d", len(cold.Threads), len(warm.Threads))
	}
	for i := range cold.Threads {
		ct, wt := cold.Threads[i], warm.Threads[i]
		if ct.PR != wt.PR || ct.SR != wt.SR || ct.Cost != wt.Cost || ct.PrivBase != wt.PrivBase {
			return fmt.Errorf("thread %d: cold (pr %d, sr %d, cost %d, base %d) vs warm (pr %d, sr %d, cost %d, base %d)",
				i, ct.PR, ct.SR, ct.Cost, ct.PrivBase, wt.PR, wt.SR, wt.Cost, wt.PrivBase)
		}
		if got, want := wt.F.Format(), ct.F.Format(); got != want {
			return fmt.Errorf("thread %d: warm rewrite differs from cold:\n%s\nvs\n%s", i, got, want)
		}
		memC := make([]uint32, 1<<12)
		memW := make([]uint32, 1<<12)
		opt := interp.Options{TID: uint32(i)}
		rc, err := interp.Run(ct.F, memC, opt)
		if err != nil {
			return fmt.Errorf("thread %d: running cold rewrite: %v", i, err)
		}
		rw, err := interp.Run(wt.F, memW, opt)
		if err != nil {
			return fmt.Errorf("thread %d: running warm rewrite: %v", i, err)
		}
		if err := interp.Equivalent(rc, rw); err != nil {
			return fmt.Errorf("thread %d: cold and warm rewrites diverge: %v", i, err)
		}
	}
	return nil
}

// TestWarmColdDifferentialARA drives 100 mix requests through a shared
// cache and checks every one against a cold run of the same request.
func TestWarmColdDifferentialARA(t *testing.T) {
	cache := New(Config{})
	for i := int64(0); i < 100; i++ {
		funcs := mixFuncs(i, 8)
		cold, coldErr := core.AllocateARA(funcs, core.Config{NReg: 32})
		warm, warmErr := core.AllocateARA(funcs, core.Config{NReg: 32, FuncCache: cache})
		if (coldErr == nil) != (warmErr == nil) {
			t.Fatalf("request %d: cold err %v vs warm err %v", i, coldErr, warmErr)
		}
		if coldErr != nil {
			continue
		}
		if err := diffAllocs(cold, warm); err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	st := cache.Stats()
	if st.Hits == 0 {
		t.Errorf("stats = %+v: the warm runs never hit the cache, differential proved nothing", st)
	}
}

// TestWarmColdDifferentialSRA covers the homogeneous-threads entry
// point: warm SRA sweeps replay through the same cache the ARA runs
// warmed.
func TestWarmColdDifferentialSRA(t *testing.T) {
	cache := New(Config{})
	for i := int64(0); i < 12; i++ {
		funcs := mixFuncs(3*i, 8) // single-thread compositions pick the kernel
		f := funcs[0]
		nthd := 2 + int(i)%3
		cold, coldErr := core.AllocateSRA(f, nthd, core.Config{NReg: 32})
		warm, warmErr := core.AllocateSRA(f, nthd, core.Config{NReg: 32, FuncCache: cache})
		if (coldErr == nil) != (warmErr == nil) {
			t.Fatalf("request %d: cold err %v vs warm err %v", i, coldErr, warmErr)
		}
		if coldErr != nil {
			continue
		}
		if err := diffAllocs(cold, warm); err != nil {
			t.Fatalf("request %d (nthd %d): %v", i, nthd, err)
		}
	}
}

// TestWarmColdDifferentialConcurrent interleaves duplicate kernels
// across goroutines against one shared cache — the -race regression for
// checkout/checkin from concurrent batch jobs. Cold references are
// computed per request inside each goroutine, so every comparison is
// independent of scheduling.
func TestWarmColdDifferentialConcurrent(t *testing.T) {
	cache := New(Config{Entries: 6, MaxIdle: 2}) // tight: force eviction + overflow races
	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := int64(0); i < 15; i++ {
				// Overlapping streams: goroutines share compositions, so
				// the same kernel is concurrently checked out, absorbed
				// and evicted across workers.
				req := (int64(w) + i) % 20
				funcs := mixFuncs(req, 4)
				cold, coldErr := core.AllocateARA(funcs, core.Config{NReg: 32, Workers: 2})
				warm, warmErr := core.AllocateARA(funcs, core.Config{NReg: 32, Workers: 2, FuncCache: cache})
				if (coldErr == nil) != (warmErr == nil) {
					t.Errorf("worker %d request %d: cold err %v vs warm err %v", w, req, coldErr, warmErr)
					return
				}
				if coldErr != nil {
					continue
				}
				if err := diffAllocs(cold, warm); err != nil {
					t.Errorf("worker %d request %d: %v", w, req, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	st := cache.Stats()
	if st.Entries > 6 {
		t.Errorf("Entries = %d exceeds the bound", st.Entries)
	}
}

// TestErrorRunsNeverWarmCache is the engine-level regression: a failing
// allocation (infeasible register file) must leave the cache without an
// entry for the kernel, and a degraded fallback (cancelled context)
// must not recycle its allocators either.
func TestErrorRunsNeverWarmCache(t *testing.T) {
	cache := New(Config{})
	funcs := mixFuncs(1, 8)
	if _, err := core.AllocateARA(funcs, core.Config{NReg: 1, FuncCache: cache}); err == nil {
		t.Fatal("NReg 1 allocation unexpectedly succeeded")
	}
	if st := cache.Stats(); st.Entries != 0 || st.Idle != 0 {
		t.Errorf("stats after failed run = %+v, want an empty cache", st)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	alloc, err := core.AllocateARACtx(ctx, funcs, core.Config{NReg: 32, FuncCache: cache})
	if err != nil {
		t.Fatalf("cancelled-context run: %v (expected the degraded fallback)", err)
	}
	if !alloc.Degraded {
		t.Fatal("cancelled-context run returned a non-degraded result")
	}
	if st := cache.Stats(); st.Entries != 0 || st.Idle != 0 {
		t.Errorf("stats after degraded run = %+v, want an empty cache — degraded results must never warm it", st)
	}
}
