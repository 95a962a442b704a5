package intra

import (
	"fmt"
	"math/rand"
	"testing"

	"npra/internal/ig"
	"npra/internal/interp"
	"npra/internal/ir"
	"npra/internal/passes"
	"npra/internal/progen"
)

// TestWarmStartDifferential is the warm-start safety net: for >= 200
// generated programs, a single warm allocator (shared context memo,
// incremental re-pricing on) must agree exactly — same errors, same
// cost, same palette, same per-point coloring — with a cold allocator
// built from scratch at every (pr, sr) probe with the incremental
// machinery disabled (every MoveCost is the full edge walk). A second
// warm allocator pricing chain steps on four lanes must return the same
// Solutions piece for piece, and do the same search. At the minimum
// budget both rewrites must also execute equivalently to the original
// program.
func TestWarmStartDifferential(t *testing.T) {
	const seeds = 200
	cfg := progen.StructuredConfig{
		MaxDepth: 2, MaxBodyLen: 8, MaxTripCnt: 3, MaxVars: 10,
		CSBDensity: 0.3, StoreWindow: 64,
	}
	for seed := int64(0); seed < seeds; seed++ {
		rng := rand.New(rand.NewSource(seed))
		f := progen.GenerateStructured(rng, cfg)
		opt, _, err := passes.Optimize(f)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		a := ig.Analyze(opt)
		warm, err := NewFromAnalysis(a)
		if err != nil {
			continue // bound-estimation failure: nothing to compare
		}
		bd := warm.Bounds()
		lanes, err := NewFromAnalysis(a)
		if err != nil {
			t.Fatalf("seed %d: estimation diverged: %v", seed, err)
		}
		lanes.Workers = 4

		// Probe the lattice around both extremes plus the interior: the
		// minimum point and its (pr, sr) neighbors exercise the deepest
		// chain reuse, the max point the root, the midpoint a partial
		// derivation.
		minSR := bd.MinR - bd.MinPR
		probes := [][2]int{
			{bd.MinPR, minSR},
			{bd.MinPR + 1, minSR},
			{bd.MinPR, minSR + 1},
			{bd.MinPR + 1, minSR + 1},
			{(bd.MinPR + bd.MaxPR) / 2, (minSR + bd.MaxR - bd.MaxPR) / 2},
			{bd.MaxPR, bd.MaxR - bd.MaxPR},
		}
		tried := make(map[[2]int]bool)
		for _, pb := range probes {
			pr, sr := pb[0], pb[1]
			if tried[pb] || pr < 0 || sr < 0 {
				continue
			}
			tried[pb] = true

			wsol, werr := warm.Solve(pr, sr)
			lsol, lerr := lanes.Solve(pr, sr)
			if (werr == nil) != (lerr == nil) || werr != nil && werr.Error() != lerr.Error() {
				t.Fatalf("seed %d (%d,%d): serial err %v, four-lane err %v", seed, pr, sr, werr, lerr)
			}
			if werr == nil {
				if err := sameSolution(wsol, lsol); err != nil {
					t.Fatalf("seed %d (%d,%d): four lanes: %v", seed, pr, sr, err)
				}
			}

			cold, err := NewFromAnalysis(a)
			if err != nil {
				t.Fatalf("seed %d: cold estimation diverged: %v", seed, err)
			}
			cold.DisableIncremental = true
			csol, cerr := cold.Solve(pr, sr)

			if (werr == nil) != (cerr == nil) {
				t.Fatalf("seed %d (%d,%d): warm err %v, cold err %v", seed, pr, sr, werr, cerr)
			}
			if werr != nil {
				continue
			}
			if wsol.Cost != csol.Cost {
				t.Fatalf("seed %d (%d,%d): warm cost %d, cold cost %d", seed, pr, sr, wsol.Cost, csol.Cost)
			}
			wc, cc := wsol.Ctx, csol.Ctx
			if wc.Cap != cc.Cap || wc.Size != cc.Size {
				t.Fatalf("seed %d (%d,%d): warm palette (%d,%d), cold (%d,%d)",
					seed, pr, sr, wc.Cap, wc.Size, cc.Cap, cc.Size)
			}
			np := opt.NumPoints()
			for v := 0; v < a.NumVars; v++ {
				for p := 0; p < np; p++ {
					if wcol, ccol := wc.ColorAt(v, p), cc.ColorAt(v, p); wcol != ccol {
						t.Fatalf("seed %d (%d,%d): v%d at point %d: warm color %d, cold color %d",
							seed, pr, sr, v, p, wcol, ccol)
					}
				}
			}
		}

		ws, ls := warm.PhaseStats(), lanes.PhaseStats()
		if ws.Trials != ls.Trials || ws.ChainSteps != ls.ChainSteps || warm.CacheStats() != lanes.CacheStats() {
			t.Fatalf("seed %d: serial search (%d trials, %d steps, %+v) vs four lanes (%d, %d, %+v)", seed,
				ws.Trials, ws.ChainSteps, warm.CacheStats(), ls.Trials, ls.ChainSteps, lanes.CacheStats())
		}

		// Execution equivalence at the minimum budget.
		wsol, werr := warm.Solve(bd.MinPR, minSR)
		if werr != nil {
			continue
		}
		phys := make([]ir.Reg, wsol.Ctx.Size)
		for c := range phys {
			phys[c] = ir.Reg(c)
		}
		nf, _, err := Rewrite(wsol.Ctx, phys)
		if err != nil {
			t.Fatalf("seed %d: rewrite: %v", seed, err)
		}
		const memWords = 64
		r1, err := interp.Run(opt, make([]uint32, memWords), interp.Options{MaxSteps: 20000})
		if err != nil || !r1.Halted {
			continue // allocation cannot fix a non-halting input
		}
		r2, err := interp.Run(nf, make([]uint32, memWords), interp.Options{MaxSteps: 200000})
		if err != nil {
			t.Fatalf("seed %d: rewritten code faulted: %v", seed, err)
		}
		if err := interp.Equivalent(r1, r2); err != nil {
			t.Fatalf("seed %d: warm-started allocation changed semantics: %v\noriginal:\n%s\nrewritten:\n%s",
				seed, err, opt.Format(), nf.Format())
		}
	}
}

// sameSolution reports how two Solutions of one budget differ in cost,
// palette or pieces (variable, color and points, in order), or nil.
func sameSolution(x, y *Solution) error {
	if x.Cost != y.Cost {
		return fmt.Errorf("cost %d vs %d", x.Cost, y.Cost)
	}
	xc, yc := x.Ctx, y.Ctx
	if xc.Cap != yc.Cap || xc.Size != yc.Size {
		return fmt.Errorf("palette (%d,%d) vs (%d,%d)", xc.Cap, xc.Size, yc.Cap, yc.Size)
	}
	if len(xc.Pieces) != len(yc.Pieces) {
		return fmt.Errorf("%d pieces vs %d", len(xc.Pieces), len(yc.Pieces))
	}
	for i, xp := range xc.Pieces {
		yp := yc.Pieces[i]
		if xp.Var != yp.Var || xp.Color != yp.Color || !xp.Points.Equal(yp.Points) {
			return fmt.Errorf("piece %d: v%d color %d %v vs v%d color %d %v",
				i, xp.Var, xp.Color, xp.Points.Elems(nil), yp.Var, yp.Color, yp.Points.Elems(nil))
		}
	}
	return nil
}

// TestIncrementalCostOracle pins the incremental re-pricing to its
// from-scratch oracle on every context a full chain derivation memoizes:
// the cached MoveCost must equal an independent full edge walk.
func TestIncrementalCostOracle(t *testing.T) {
	cfg := progen.StructuredConfig{
		MaxDepth: 3, MaxBodyLen: 12, MaxTripCnt: 4, MaxVars: 14,
		CSBDensity: 0.25, StoreWindow: 128,
	}
	for _, seed := range []int64{3, 19, 71, 109, 181} {
		rng := rand.New(rand.NewSource(seed))
		f := progen.GenerateStructured(rng, cfg)
		opt, _, err := passes.Optimize(f)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		al := MustNew(opt)
		bd := al.Bounds()
		for cap := bd.MaxPR; cap >= bd.MinPR; cap-- {
			for size := bd.MaxR; size >= bd.MinR; size-- {
				if size < cap {
					continue
				}
				if _, err := al.context(cap, size); err != nil {
					continue
				}
			}
		}
		for key, ctx := range al.memo {
			if got, want := ctx.MoveCost(), ctx.moveCostFull(); got != want {
				t.Fatalf("seed %d palette (%d,%d): incremental cost %d, full walk %d",
					seed, key[0], key[1], got, want)
			}
		}
	}
}
