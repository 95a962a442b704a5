// Package intra implements the paper's intra-thread register allocator
// (§7): given a private-register budget PR and a shared budget SR, color
// every live range so that values live across context switches use only
// the first PR "private-capable" colors, splitting live ranges with move
// instructions when the budgets are below the move-free requirement
// (Reduce-PR and Reduce-SR invocations, Figure 10).
//
// Live ranges are represented as *pieces*: disjoint sets of program
// points, one color per piece. Splitting a live range partitions its
// points across several pieces; the rewriter later materializes a move on
// every CFG edge where a variable changes piece color. This makes
// correctness structural — any proper piece coloring yields correct code —
// while the allocator's job is purely to minimize the number of such
// color changes (the paper's move-minimization objective).
package intra

import (
	"npra/internal/bitset"
	"npra/internal/core/errs"
	"npra/internal/ig"
)

// Piece is one fragment of a live range: a subset of the variable's live
// points, held in a single color (register) throughout.
type Piece struct {
	Var    int
	Color  int
	Points bitset.Set
}

// Context is one allocation state: a full piece partition of every live
// range plus the palette it is colored with. Colors [0, Cap) may be used
// by pieces that cross context-switch boundaries ("private-capable");
// colors [0, Size) by anything.
//
// Alongside the piece list the context maintains three derived indexes
// that turn the hot recoloring queries into word-level operations:
//
//   - pieceOf answers "which piece holds v at p": one piece index per
//     live (var, point) slot, numbered by ig.Analysis.Slot;
//   - occ answers "which colors are taken at p": one color bitmask row
//     per point (bit c of point p's row is set iff a piece covering p
//     holds color c — well defined because a proper coloring admits at
//     most one such piece);
//   - colPts, occ transposed, answers "where is color c taken": one
//     point set per palette color.
//
// occ and colPts hold colors, never piece indices, and occSet/occClear
// keep the two in step on every mutation. pieceOf is written wherever a
// piece gains points and renumbered by rebuildPieceIndex after coalesce
// compacts the piece list.
type Context struct {
	A    *ig.Analysis
	Cap  int // boundary palette size (≥ colors used by crossing pieces)
	Size int // total palette size

	Pieces []*Piece

	np      int
	occW    int      // words per occupancy row (fixed at chain root)
	npW     int      // words per point set (a colPts row)
	pieceOf []int32  // [slot] -> piece index covering that (var, point)
	occ     []uint64 // np rows of occW words: color-occupancy per point
	colPts  []uint64 // Size rows of npW words: the points holding each color
	cost    int      // cached MoveCost; -1 when dirty
	weights []int64  // optional per-point loop weights (nil = static count)

	// Incremental move-cost state. MoveCost is additive per variable
	// (each CFG edge contribution involves exactly one variable), so a
	// mutation needs only the touched variables re-priced against a
	// snapshot: cost = baseCost - oldSum + Σ varCost(dirty). touchVar
	// must run BEFORE the first mutation of a variable's coloring so
	// that oldSum captures the snapshot-time contribution.
	baseCost int        // total cost at snapshot time; -1 = no snapshot
	dirty    []int32    // variables touched since the snapshot
	dirtyIn  bitset.Set // membership set for dirty
	oldSum   int        // Σ snapshot-time varCost over dirty
	noIncr   bool       // force full-walk costing (differential oracle)

	// Reusable scratch for the recoloring kernels (single-threaded use).
	ptsScratch  []int // recolorPiece: point list of the piece
	asgScratch  []int // recolorPiece: per-point color assignment
	victScratch []int // victimsOf: piece indices holding a color
	freeScratch []uint64
	accScratch  []uint64
	freqScratch []int
	idxScratch  []int32
	offScratch  []int32
}

// newContext builds the unsplit context from an estimation coloring:
// one piece per live variable. weights, when non-nil, makes MoveCost a
// loop-depth-weighted estimate of the *dynamic* move count.
func newContext(a *ig.Analysis, colors []int, cap, size int, weights []int64) *Context {
	np := a.F.NumPoints()
	occW := (size + 63) / 64
	if occW == 0 {
		occW = 1
	}
	npW := (np + 63) / 64
	ctx := &Context{
		A: a, Cap: cap, Size: size, np: np, occW: occW, npW: npW,
		cost: -1, baseCost: -1, weights: weights,
	}
	ctx.pieceOf = make([]int32, a.NumSlots)
	ctx.occ = make([]uint64, np*occW)
	ctx.colPts = make([]uint64, size*npW)
	ctx.dirtyIn = bitset.New(a.NumVars)
	for v := 0; v < a.NumVars; v++ {
		if !a.Alive[v] {
			continue
		}
		ctx.addPiece(&Piece{Var: v, Color: colors[v], Points: a.Points[v].Clone()})
	}
	return ctx
}

func (ctx *Context) addPiece(p *Piece) int {
	idx := len(ctx.Pieces)
	ctx.Pieces = append(ctx.Pieces, p)
	for pt := p.Points.NextSet(0); pt >= 0; pt = p.Points.NextSet(pt + 1) {
		ctx.pieceOf[ctx.A.Slot(p.Var, pt)] = int32(idx)
		ctx.occSet(pt, p.Color)
	}
	ctx.cost = -1
	return idx
}

// occRow returns point p's color-occupancy row.
func (ctx *Context) occRow(p int) []uint64 { return ctx.occ[p*ctx.occW : (p+1)*ctx.occW] }

// colorPoints returns the set of points where color c is held.
func (ctx *Context) colorPoints(c int) bitset.Set {
	return ctx.colPts[c*ctx.npW : (c+1)*ctx.npW]
}

// occSet and occClear flip color c at point p in both occ and colPts.
func (ctx *Context) occSet(p, c int) {
	ctx.occ[p*ctx.occW+(c>>6)] |= 1 << (uint(c) & 63)
	ctx.colPts[c*ctx.npW+(p>>6)] |= 1 << (uint(p) & 63)
}

func (ctx *Context) occClear(p, c int) {
	ctx.occ[p*ctx.occW+(c>>6)] &^= 1 << (uint(c) & 63)
	ctx.colPts[c*ctx.npW+(p>>6)] &^= 1 << (uint(p) & 63)
}

// wordMask returns the mask of colors [0, limit) that fall into word j of
// an occupancy row.
func wordMask(j, limit int) uint64 {
	base := j * 64
	switch {
	case limit >= base+64:
		return ^uint64(0)
	case limit <= base:
		return 0
	default:
		return 1<<uint(limit-base) - 1
	}
}

// attach records piece i (with its current color) in occ and colPts.
func (ctx *Context) attach(i int) {
	x := ctx.Pieces[i]
	for p := x.Points.NextSet(0); p >= 0; p = x.Points.NextSet(p + 1) {
		ctx.occSet(p, x.Color)
	}
}

// detach removes piece i from occ and colPts (pieceOf stays: the piece
// still owns its points, it is just invisible to occupancy queries while
// being recolored).
func (ctx *Context) detach(i int) {
	x := ctx.Pieces[i]
	for p := x.Points.NextSet(0); p >= 0; p = x.Points.NextSet(p + 1) {
		ctx.occClear(p, x.Color)
	}
}

// recolorWhole moves attached piece i to newCol, maintaining occ/colPts.
func (ctx *Context) recolorWhole(i, newCol int) {
	x := ctx.Pieces[i]
	old := x.Color
	if old == newCol {
		return
	}
	for p := x.Points.NextSet(0); p >= 0; p = x.Points.NextSet(p + 1) {
		ctx.occClear(p, old)
		ctx.occSet(p, newCol)
	}
	x.Color = newCol
}

// PieceAt returns the index of v's piece covering point p, or -1 when v
// is not live at p.
func (ctx *Context) PieceAt(v, p int) int {
	s := ctx.A.Slot(v, p)
	if s < 0 {
		return -1
	}
	return int(ctx.pieceOf[s])
}

// ColorAt returns the palette color holding v at point p, or -1.
func (ctx *Context) ColorAt(v, p int) int {
	i := ctx.PieceAt(v, p)
	if i < 0 {
		return -1
	}
	return ctx.Pieces[i].Color
}

// Clone deep-copies the context (weights are shared; they are immutable).
func (ctx *Context) Clone() *Context {
	c := &Context{}
	c.copyFrom(ctx)
	return c
}

// copyFrom overwrites dst with a deep copy of src, reusing dst's existing
// storage (piece structs, point sets, index arrays, occupancy rows) where
// capacities allow. The allocator's bestStep cycles trial contexts
// through a scratch pool with copyFrom instead of allocating a fresh
// Clone per candidate color.
func (dst *Context) copyFrom(src *Context) {
	dst.A, dst.Cap, dst.Size = src.A, src.Cap, src.Size
	dst.np, dst.occW, dst.npW = src.np, src.occW, src.npW
	dst.cost, dst.weights, dst.noIncr = src.cost, src.weights, src.noIncr
	dst.baseCost, dst.oldSum = src.baseCost, src.oldSum

	n := len(src.Pieces)
	full := dst.Pieces[:cap(dst.Pieces)]
	if len(full) < n {
		nf := make([]*Piece, n)
		copy(nf, full)
		full = nf
	}
	for i := 0; i < n; i++ {
		sp := src.Pieces[i]
		dp := full[i]
		if dp == nil || len(dp.Points) != len(sp.Points) {
			dp = &Piece{Points: sp.Points.Clone()}
			full[i] = dp
		} else {
			dp.Points.Copy(sp.Points)
		}
		dp.Var, dp.Color = sp.Var, sp.Color
	}
	dst.Pieces = full[:n]

	dst.pieceOf = append(dst.pieceOf[:0], src.pieceOf...)
	dst.occ = append(dst.occ[:0], src.occ...)
	dst.colPts = append(dst.colPts[:0], src.colPts...)
	dst.dirty = append(dst.dirty[:0], src.dirty...)
	dst.dirtyIn = append(dst.dirtyIn[:0], src.dirtyIn...)
}

// crossingPoints returns the CSB points piece x is live across.
func (ctx *Context) crossingPoints(x *Piece) bitset.Set {
	cr := ctx.A.Crossings[x.Var]
	if cr == nil {
		return nil
	}
	s := cr.Clone()
	s.And(x.Points)
	return s
}

// crosses reports whether piece x is live across any CSB.
func (ctx *Context) crosses(x *Piece) bool {
	cr := ctx.A.Crossings[x.Var]
	return cr != nil && cr.Intersects(x.Points)
}

// touchVar marks variable v's coloring as about to change. It must run
// BEFORE the mutation: the snapshot contribution oldSum is priced from
// the current (pre-mutation) assignment. Color-preserving restructurings
// (piece merges within one color, palette relabelings) need no touch.
func (ctx *Context) touchVar(v int) {
	ctx.cost = -1
	if ctx.noIncr || ctx.baseCost < 0 {
		return
	}
	if ctx.dirtyIn.Has(v) {
		return
	}
	ctx.dirtyIn.Add(v)
	ctx.dirty = append(ctx.dirty, int32(v))
	ctx.oldSum += ctx.varCost(v)
}

// varCost prices variable v's contribution to MoveCost: its flow edges
// (ig.Analysis.VarEdges, pre-translated to slot pairs in SlotEdges)
// whose endpoints sit in differently-colored pieces. Both endpoints
// always have slots: v is live-out of p and live-in to q, hence covered
// at both points.
func (ctx *Context) varCost(v int) int {
	slots := ctx.A.SlotEdges[v]
	total := 0
	if ctx.weights == nil {
		for k := 0; k < len(slots); k += 2 {
			xs, xd := ctx.pieceOf[slots[k]], ctx.pieceOf[slots[k+1]]
			if xs != xd && ctx.Pieces[xs].Color != ctx.Pieces[xd].Color {
				total++
			}
		}
		return total
	}
	edges := ctx.A.VarEdges[v]
	for k := 0; k < len(slots); k += 2 {
		xs, xd := ctx.pieceOf[slots[k]], ctx.pieceOf[slots[k+1]]
		if xs != xd && ctx.Pieces[xs].Color != ctx.Pieces[xd].Color {
			total += ctx.edgeWeight(int(edges[k]), int(edges[k+1]))
		}
	}
	return total
}

// MoveCost counts the moves the rewriter will emit: CFG edges (p -> q)
// along which some variable is live in differently-colored pieces at the
// two ends. This is the paper's objective function. With weights set, each
// edge contributes min(w(p), w(q)) instead of 1, approximating the
// dynamic execution count by loop depth.
//
// The value is maintained incrementally: against the last computed
// snapshot only the variables touched since then are re-priced. A context
// without a snapshot (or with incremental costing disabled) pays a full
// per-variable walk.
func (ctx *Context) MoveCost() int {
	if ctx.cost >= 0 {
		return ctx.cost
	}
	var total int
	switch {
	case ctx.noIncr:
		total = ctx.moveCostFull()
	case ctx.baseCost >= 0:
		total = ctx.baseCost - ctx.oldSum
		for _, v := range ctx.dirty {
			total += ctx.varCost(int(v))
		}
	default:
		for v := 0; v < ctx.A.NumVars; v++ {
			if ctx.A.Alive[v] {
				total += ctx.varCost(v)
			}
		}
	}
	ctx.cost = total
	ctx.baseCost = total
	for _, v := range ctx.dirty {
		ctx.dirtyIn.Remove(int(v))
	}
	ctx.dirty = ctx.dirty[:0]
	ctx.oldSum = 0
	return total
}

// moveCostFull is the from-scratch edge walk, kept as an independent
// implementation of the objective: the incremental path never feeds it,
// so differential tests can pit one against the other.
func (ctx *Context) moveCostFull() int {
	a := ctx.A
	total := 0
	var succs []int
	for p := 0; p < ctx.np; p++ {
		succs = a.F.PointSuccs(p, succs[:0])
		for _, q := range succs {
			a.Live.Out[p].ForEach(func(v int) {
				if !a.Live.In[q].Has(v) {
					return
				}
				xs, xd := ctx.PieceAt(v, p), ctx.PieceAt(v, q)
				if xs != xd && ctx.Pieces[xs].Color != ctx.Pieces[xd].Color {
					total += ctx.edgeWeight(p, q)
				}
			})
		}
	}
	return total
}

func (ctx *Context) edgeWeight(p, q int) int {
	if ctx.weights == nil {
		return 1
	}
	w := ctx.weights[p]
	if wq := ctx.weights[q]; wq < w {
		w = wq
	}
	return int(w)
}

// MoveCount always returns the static number of moves, regardless of the
// weighting mode.
func (ctx *Context) MoveCount() int {
	a := ctx.A
	total := 0
	var succs []int
	for p := 0; p < ctx.np; p++ {
		succs = a.F.PointSuccs(p, succs[:0])
		for _, q := range succs {
			a.Live.Out[p].ForEach(func(v int) {
				if !a.Live.In[q].Has(v) {
					return
				}
				xs, xd := ctx.PieceAt(v, p), ctx.PieceAt(v, q)
				if xs != xd && ctx.Pieces[xs].Color != ctx.Pieces[xd].Color {
					total++
				}
			})
		}
	}
	return total
}

// WeightedMoveCost evaluates the split schedule under explicit per-point
// weights (for comparing allocators built with different objectives).
func (ctx *Context) WeightedMoveCost(weights []int64) int64 {
	a := ctx.A
	var total int64
	var succs []int
	for p := 0; p < ctx.np; p++ {
		succs = a.F.PointSuccs(p, succs[:0])
		for _, q := range succs {
			a.Live.Out[p].ForEach(func(v int) {
				if !a.Live.In[q].Has(v) {
					return
				}
				xs, xd := ctx.PieceAt(v, p), ctx.PieceAt(v, q)
				if xs != xd && ctx.Pieces[xs].Color != ctx.Pieces[xd].Color {
					w := weights[p]
					if wq := weights[q]; wq < w {
						w = wq
					}
					total += w
				}
			})
		}
	}
	return total
}

// Validate checks every structural invariant of the context; tests and
// the inter-thread allocator use it as a safety net. It deliberately
// reads only the ground-truth representation (Pieces + pieceOf), never
// the derived occ/colPts structures, so it stays meaningful on contexts
// whose pieces were mutated directly.
func (ctx *Context) Validate() error {
	a := ctx.A
	// Partition: each live point of each var covered by exactly one piece.
	covered := make([]bitset.Set, a.NumVars)
	for i, x := range ctx.Pieces {
		if x.Color < 0 || x.Color >= ctx.Size {
			return errs.Internalf("intra: piece %d (v%d) color %d outside palette [0,%d)", i, x.Var, x.Color, ctx.Size)
		}
		if ctx.crosses(x) && x.Color >= ctx.Cap {
			return errs.Internalf("intra: crossing piece %d (v%d) colored %d >= cap %d", i, x.Var, x.Color, ctx.Cap)
		}
		if covered[x.Var] == nil {
			covered[x.Var] = bitset.New(ctx.np)
		}
		if covered[x.Var].Intersects(x.Points) {
			return errs.Internalf("intra: pieces of v%d overlap", x.Var)
		}
		covered[x.Var].Or(x.Points)
	}
	for v := 0; v < a.NumVars; v++ {
		if !a.Alive[v] {
			if covered[v] != nil && !covered[v].Empty() {
				return errs.Internalf("intra: dead v%d has pieces", v)
			}
			continue
		}
		if covered[v] == nil || !covered[v].Equal(a.Points[v]) {
			return errs.Internalf("intra: pieces of v%d do not cover its live range", v)
		}
	}
	// Proper coloring at every point.
	seen := make([]int, ctx.Size)
	for i := range seen {
		seen[i] = -1
	}
	for p := 0; p < ctx.np; p++ {
		conflict := -1
		a.Live.At[p].ForEach(func(v int) {
			c := ctx.ColorAt(v, p)
			if seen[c] == p {
				conflict = v
			}
			seen[c] = p
		})
		if conflict >= 0 {
			return errs.Internalf("intra: color collision at point %d involving v%d", p, conflict)
		}
		// reset marker trick: seen[c]==p marks use at this point
	}
	return nil
}

// colorsFreeAt fills free with true for palette colors not used by any
// co-live piece at point p, excluding variable self. It reads the
// ground-truth representation only (the hot paths use occ rows instead).
func (ctx *Context) colorsFreeAt(p int, self int, free []bool) {
	for i := 0; i < ctx.Size; i++ {
		free[i] = true
	}
	ctx.A.Live.At[p].ForEach(func(v int) {
		if v == self {
			return
		}
		if c := ctx.ColorAt(v, p); c >= 0 {
			free[c] = false
		}
	})
}

// rebuildPieceIndex renumbers pieceOf after coalesce compacted the
// piece list, for the pieces from index from on (those before it kept
// their indices). occ and colPts hold colors, not piece indices, so they
// need no rebuild; re-indexing changes no colors, so the cached cost and
// incremental snapshot stay valid.
func (ctx *Context) rebuildPieceIndex(from int) {
	for i := from; i < len(ctx.Pieces); i++ {
		x := ctx.Pieces[i]
		for pt := x.Points.NextSet(0); pt >= 0; pt = x.Points.NextSet(pt + 1) {
			ctx.pieceOf[ctx.A.Slot(x.Var, pt)] = int32(i)
		}
	}
}
