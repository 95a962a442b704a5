package intra

import (
	"fmt"
	"math/rand"
	"testing"

	"npra/internal/bench"
	"npra/internal/bitset"
	"npra/internal/ir"
	"npra/internal/passes"
	"npra/internal/progen"
)

// checkSync verifies the derived indexes — the per-point occupancy rows
// (occ), the per-color point sets (colPts) and the slot-indexed pieceOf —
// against the ground-truth piece list. Every mutation path — vacate
// relabeling, demote swaps, displacement, splitting, squatter eviction,
// coalescing, and scratch-pool copyFrom — must leave these exactly
// consistent; the incremental kernels trust them without re-deriving.
func (ctx *Context) checkSync() error {
	if len(ctx.pieceOf) != ctx.A.NumSlots {
		return fmt.Errorf("pieceOf has %d slots, analysis numbers %d", len(ctx.pieceOf), ctx.A.NumSlots)
	}
	covered := 0
	for i, x := range ctx.Pieces {
		for p := x.Points.NextSet(0); p >= 0; p = x.Points.NextSet(p + 1) {
			s := ctx.A.Slot(x.Var, p)
			if s < 0 {
				return fmt.Errorf("piece %d (v%d) covers point %d outside its live range", i, x.Var, p)
			}
			if got := ctx.pieceOf[s]; got != int32(i) {
				return fmt.Errorf("pieceOf slot %d (v%d point %d) = %d, want %d", s, x.Var, p, got, i)
			}
			covered++
		}
	}
	if covered != ctx.A.NumSlots {
		return fmt.Errorf("pieces cover %d slots, analysis numbers %d", covered, ctx.A.NumSlots)
	}
	for p := 0; p < ctx.np; p++ {
		want := make([]uint64, ctx.occW)
		for _, x := range ctx.Pieces {
			if x.Points.Has(p) {
				want[x.Color>>6] |= 1 << (uint(x.Color) & 63)
			}
		}
		row := ctx.occRow(p)
		for j := 0; j < ctx.occW; j++ {
			if row[j] != want[j] {
				return fmt.Errorf("occ desync at point %d word %d: have %x want %x", p, j, row[j], want[j])
			}
		}
	}
	if len(ctx.colPts) != ctx.Size*ctx.npW {
		return fmt.Errorf("colPts holds %d words, want %d colors x %d", len(ctx.colPts), ctx.Size, ctx.npW)
	}
	for c := 0; c < ctx.Size; c++ {
		want := bitset.New(ctx.np)
		for _, x := range ctx.Pieces {
			if x.Color == c {
				want.Or(x.Points)
			}
		}
		if !ctx.colorPoints(c).Equal(want) {
			return fmt.Errorf("colPts desync at color %d", c)
		}
	}
	return nil
}

// canTakeScan is the piece-scan definition canTake is indexed from: x
// may adopt col unless a piece of another variable holding col overlaps
// it (or col is outside the palette, or shared-only while x crosses a
// CSB).
func (ctx *Context) canTakeScan(x *Piece, col int) bool {
	if col < 0 || col >= ctx.Size {
		return false
	}
	if col >= ctx.Cap && ctx.crosses(x) {
		return false
	}
	for _, y := range ctx.Pieces {
		if y.Color == col && y.Var != x.Var && y.Points.Intersects(x.Points) {
			return false
		}
	}
	return true
}

// TestContextIndexConsistency sweeps the whole (cap, size) derivation
// lattice for generated programs and two paper kernels wide enough for
// multi-word point sets, and on every memoized context checks index
// integrity, canTake against the canTakeScan oracle for every piece and
// palette color, and Validate. The seed list includes 109, which once
// exposed stale *Piece aliasing: coalesce compacted Pieces in place
// without clearing the tail, so a later copyFrom growing back into the
// backing array reused one struct for two slots.
func TestContextIndexConsistency(t *testing.T) {
	cfg := progen.StructuredConfig{
		MaxDepth: 3, MaxBodyLen: 14, MaxTripCnt: 4, MaxVars: 16,
		CSBDensity: 0.25, StoreWindow: 128,
	}
	var names []string
	var funcs []*ir.Func
	for _, seed := range []int64{1, 7, 42, 109, 211} {
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 4; i++ {
			c := cfg
			c.StoreBase = int64(i * 256)
			f := progen.GenerateStructured(rng, c)
			opt, _, err := passes.Optimize(f)
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			names = append(names, fmt.Sprintf("seed %d func %d", seed, i))
			funcs = append(funcs, opt)
		}
	}
	for _, name := range []string{"md5", "fir2dim"} {
		b, err := bench.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		names = append(names, name)
		funcs = append(funcs, b.Gen(8))
	}
	for fi, f := range funcs {
		al := MustNew(f)
		bd := al.Bounds()
		for cap := bd.MaxPR; cap >= bd.MinPR; cap-- {
			for size := bd.MaxR; size >= bd.MinR; size-- {
				if size < cap {
					continue
				}
				ctx, err := al.context(cap, size)
				if err != nil {
					continue
				}
				if serr := ctx.checkSync(); serr != nil {
					t.Fatalf("%s palette (%d,%d): %v", names[fi], cap, size, serr)
				}
				for i, x := range ctx.Pieces {
					for col := 0; col < ctx.Size; col++ {
						if got, want := ctx.canTake(x, col), ctx.canTakeScan(x, col); got != want {
							t.Fatalf("%s palette (%d,%d): canTake(piece %d, color %d) = %v, scan says %v",
								names[fi], cap, size, i, col, got, want)
						}
					}
				}
				if verr := ctx.Validate(); verr != nil {
					t.Fatalf("%s palette (%d,%d): validate: %v", names[fi], cap, size, verr)
				}
			}
		}
	}
}
