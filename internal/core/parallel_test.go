package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"npra/internal/bench"
	"npra/internal/ir"
	"npra/internal/progen"
)

// Property: the parallel engine is bit-identical to the serial one —
// same (PR, SR) vectors, same move counts, same rewritten code, same
// search counters — on random multi-thread workloads.
func TestQuickWorkersDeterminism(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(3)
		mk := func() []*ir.Func {
			r := rand.New(rand.NewSource(seed))
			funcs := make([]*ir.Func, n)
			for i := range funcs {
				funcs[i] = progen.Generate(r, progen.Default)
			}
			return funcs
		}
		nreg := 8 + rng.Intn(40)

		serial, errS := AllocateARA(mk(), Config{NReg: nreg, Workers: 1})
		par, errP := AllocateARA(mk(), Config{NReg: nreg, Workers: 8})
		if (errS == nil) != (errP == nil) {
			t.Logf("seed %d: feasibility diverged: %v vs %v", seed, errS, errP)
			return false
		}
		if errS != nil {
			return true
		}
		for i := range serial.Threads {
			s, p := serial.Threads[i], par.Threads[i]
			if s.PR != p.PR || s.SR != p.SR || s.Cost != p.Cost ||
				s.Stats.Added() != p.Stats.Added() ||
				s.F.Format() != p.F.Format() {
				t.Logf("seed %d thread %d: serial (PR=%d SR=%d cost=%d) vs parallel (PR=%d SR=%d cost=%d)",
					seed, i, s.PR, s.SR, s.Cost, p.PR, p.SR, p.Cost)
				return false
			}
		}
		return sameSearch(t, seed, serial, par)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: the SRA sweep picks the same point, with the same search,
// serially and in parallel.
func TestQuickSRAWorkersDeterminism(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		f := progen.Generate(rng, progen.Default)
		nthd := 2 + rng.Intn(3)
		nreg := 6 + rng.Intn(30)
		serial, errS := AllocateSRA(f, nthd, Config{NReg: nreg, Workers: 1})
		par, errP := AllocateSRA(f, nthd, Config{NReg: nreg, Workers: 8})
		if (errS == nil) != (errP == nil) {
			return false
		}
		if errS != nil {
			return true
		}
		s, p := serial.Threads[0], par.Threads[0]
		if s.PR != p.PR || s.SR != p.SR || s.Cost != p.Cost || s.F.Format() != p.F.Format() {
			t.Logf("seed %d: serial (PR=%d SR=%d cost=%d) vs parallel (PR=%d SR=%d cost=%d)",
				seed, s.PR, s.SR, s.Cost, p.PR, p.SR, p.Cost)
			return false
		}
		return sameSearch(t, seed, serial, par)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// sameSearch reports whether two allocations of one input did the same
// search: the worker count only splits a chain step's candidate colors
// across lanes, so the Solve-cache counters and the chain-step and trial
// counts must agree exactly.
func sameSearch(t *testing.T, seed int64, serial, par *Allocation) bool {
	if serial.SolveCache != par.SolveCache {
		t.Logf("seed %d: cache stats diverged: %+v vs %+v", seed, serial.SolveCache, par.SolveCache)
		return false
	}
	s, p := serial.Phases, par.Phases
	if s.Trials != p.Trials || s.ChainSteps != p.ChainSteps {
		t.Logf("seed %d: search diverged: %d trials / %d chain steps vs %d / %d",
			seed, s.Trials, s.ChainSteps, p.Trials, p.ChainSteps)
		return false
	}
	return true
}

// The Solve cache must show hits on the paper's S1 thread mix both at
// the full register file (duplicate md5/fir2dim threads share one
// allocator, so their initial Solves hit) and under a tight budget
// (the greedy loop re-probes the same (pr, sr) points round after
// round).
func TestSolveCacheHits(t *testing.T) {
	mk := func() []*ir.Func {
		var funcs []*ir.Func
		for _, name := range []string{"md5", "md5", "fir2dim", "fir2dim"} {
			b, err := bench.Get(name)
			if err != nil {
				t.Fatal(err)
			}
			funcs = append(funcs, b.Gen(16))
		}
		return funcs
	}
	for _, nreg := range []int{128, 54} {
		alloc, err := AllocateARA(mk(), Config{NReg: nreg})
		if err != nil {
			t.Fatalf("AllocateARA(NReg=%d): %v", nreg, err)
		}
		if err := alloc.Verify(); err != nil {
			t.Fatalf("Verify(NReg=%d): %v", nreg, err)
		}
		if alloc.SolveCache.Hits == 0 {
			t.Errorf("NReg=%d: no Solve cache hits: %+v", nreg, alloc.SolveCache)
		}
		if alloc.SolveCache.Misses == 0 {
			t.Errorf("NReg=%d: no Solve cache misses recorded: %+v", nreg, alloc.SolveCache)
		}
		// Under pressure the loop must have re-probed, not just deduped:
		// more hits than the two duplicate initial Solves alone.
		if nreg == 54 && alloc.SolveCache.Hits <= 2 {
			t.Errorf("NReg=54: hits = %d, want > 2 (loop re-probes)", alloc.SolveCache.Hits)
		}
	}
}
