package intra

import (
	"fmt"
	"math/bits"
	"sort"

	"npra/internal/bitset"
)

// errInfeasible reports that a color could not be vacated within the
// current palette (the budget is below the achievable lower bound).
type errInfeasible struct{ msg string }

func (e errInfeasible) Error() string { return "intra: infeasible: " + e.msg }

// IsInfeasible reports whether err marks an unreachable register budget.
func IsInfeasible(err error) bool {
	_, ok := err.(errInfeasible)
	return ok
}

// vacateColor removes color c from the palette entirely: every piece
// colored c is recolored — wholesale when possible, by live-range
// splitting otherwise — then colors above c shift down and the palette
// shrinks by one. This is the engine behind the paper's Reduce-SR
// invocation (and behind Reduce-PR when the whole register disappears).
func (ctx *Context) vacateColor(c int) error {
	victims := ctx.victimsOf(c, false)
	for _, i := range victims {
		if err := ctx.recolorPiece(i, c, false); err != nil {
			return err
		}
	}
	for _, x := range ctx.Pieces {
		if x.Color > c {
			x.Color--
		} else if x.Color == c {
			panic("intra: vacated color still in use") //lint:invariant occupancy index corruption: vacateColor is only called for colors Verify'd empty; a surviving user means occ and piece state diverged
		}
	}
	// occ: drop bit c from every row, shifting higher colors down in
	// step with the piece relabeling above.
	for p := 0; p < ctx.np; p++ {
		rowRemoveBit(ctx.occRow(p), c)
	}
	// colPts: splice out row c (empty by now), shifting the rows of the
	// higher colors down.
	copy(ctx.colPts[c*ctx.npW:], ctx.colPts[(c+1)*ctx.npW:])
	ctx.colPts = ctx.colPts[:(ctx.Size-1)*ctx.npW]
	if c < ctx.Cap {
		ctx.Cap--
	}
	ctx.Size--
	// The downshift maps used colors injectively, so whether two pieces
	// share a color is unchanged: the cached cost stays valid.
	return nil
}

// rowRemoveBit deletes bit position c from the row, shifting all higher
// bits down by one (with carries across word boundaries).
func rowRemoveBit(row []uint64, c int) {
	wi := c >> 6
	low := uint64(1)<<(uint(c)&63) - 1 // bits below c within word wi
	for j := wi; j < len(row); j++ {
		w := row[j] >> 1
		if j+1 < len(row) {
			w |= row[j+1] << 63
		}
		if j == wi {
			w = w&^low | row[j]&low
		}
		row[j] = w
	}
}

// demoteColor makes private-capable color c shared-only without shrinking
// the palette: pieces that cross a CSB while holding c are moved off it
// (at least at their crossing points — splitting may leave internal
// fragments on c), then c swaps labels with color Cap-1 and the
// private-capable prefix shrinks by one. This is the paper's Reduce-PR
// when the register stays available as a shared one.
func (ctx *Context) demoteColor(c int) error {
	if c < 0 || c >= ctx.Cap {
		return fmt.Errorf("intra: demote color %d outside cap %d", c, ctx.Cap)
	}
	victims := ctx.victimsOf(c, true)
	for _, i := range victims {
		if err := ctx.recolorPiece(i, c, true); err != nil {
			return err
		}
	}
	// Swap labels c <-> Cap-1 so the private-capable colors stay a prefix.
	last := ctx.Cap - 1
	if c != last {
		for _, x := range ctx.Pieces {
			switch x.Color {
			case c:
				x.Color = last
			case last:
				x.Color = c
			}
		}
		wc, bc := c>>6, uint64(1)<<(uint(c)&63)
		wl, bl := last>>6, uint64(1)<<(uint(last)&63)
		for p := 0; p < ctx.np; p++ {
			row := ctx.occRow(p)
			if (row[wc]&bc != 0) != (row[wl]&bl != 0) {
				row[wc] ^= bc
				row[wl] ^= bl
			}
		}
		rc, rl := ctx.colorPoints(c), ctx.colorPoints(last)
		for j := range rc {
			rc[j], rl[j] = rl[j], rc[j]
		}
	}
	ctx.Cap--
	// A label swap is a color bijection: the cached cost stays valid.
	return nil
}

// victimsOf lists the pieces holding color c (restricted to CSB-crossing
// pieces when crossingOnly), smallest first — small pieces are most
// likely to slot into an existing color without splitting; equal sizes
// keep ascending piece index. The returned slice is ctx scratch, valid
// until the next call.
func (ctx *Context) victimsOf(c int, crossingOnly bool) []int {
	victims := ctx.victScratch[:0]
	for i, x := range ctx.Pieces {
		if x.Color != c || crossingOnly && !ctx.crosses(x) {
			continue
		}
		victims = append(victims, i)
	}
	sort.SliceStable(victims, func(i, j int) bool {
		return ctx.Pieces[victims[i]].Points.Count() < ctx.Pieces[victims[j]].Points.Count()
	})
	ctx.victScratch = victims
	return victims
}

// recolorPiece moves piece i off color c. In vacate mode (crossingOnly
// false) c is banned at every point; in demote mode (crossingOnly true)
// c is banned only at the piece's CSB-crossing points, so splitting can
// keep internal fragments on c. It first tries a wholesale recolor (zero
// extra moves); failing that it splits the piece point-by-point, greedily
// extending single-color runs to keep the number of color changes — i.e.
// inserted moves — small. Points live across a CSB are restricted to the
// private-capable prefix [0, Cap).
//
// The piece is detached from the occupancy index for the duration, so
// the per-point free sets are plain complements of the occ rows.
func (ctx *Context) recolorPiece(i, c int, crossingOnly bool) error {
	x := ctx.Pieces[i]
	ctx.touchVar(x.Var)
	pts := x.Points.Elems(ctx.ptsScratch[:0])
	ctx.ptsScratch = pts
	cr := ctx.A.Crossings[x.Var]
	ctx.detach(i)

	occW := ctx.occW
	if need := len(pts) * occW; cap(ctx.freeScratch) < need {
		ctx.freeScratch = make([]uint64, need)
	}
	freeAt := ctx.freeScratch[:len(pts)*occW]
	if cap(ctx.freqScratch) < ctx.Size {
		ctx.freqScratch = make([]int, ctx.Size)
	}
	freq := ctx.freqScratch[:ctx.Size]
	for k := range freq {
		freq[k] = 0
	}
	banWord, banBit := c>>6, uint64(1)<<(uint(c)&63)

	// freeAt row k: colors usable at pts[k], as a word mask.
	for k, p := range pts {
		row := ctx.occRow(p)
		fr := freeAt[k*occW : (k+1)*occW]
		isCross := cr != nil && cr.Has(p)
		limit := ctx.Size
		if isCross {
			limit = ctx.Cap
		}
		for j := 0; j < occW; j++ {
			fr[j] = ^row[j] & wordMask(j, limit)
		}
		if !crossingOnly || isCross {
			fr[banWord] &^= banBit
		}
		for j := 0; j < occW; j++ {
			w := fr[j]
			for w != 0 { //lint:invariant w &= w-1 clears one set bit per iteration of a finite word
				freq[j<<6+bits.TrailingZeros64(w)]++
				w &= w - 1
			}
		}
	}

	// Wholesale recolor: a color (other than c) free everywhere —
	// the AND over all per-point free rows.
	if cap(ctx.accScratch) < occW {
		ctx.accScratch = make([]uint64, occW)
	}
	acc := ctx.accScratch[:occW]
	for j := range acc {
		acc[j] = ^uint64(0)
	}
	for k := range pts {
		fr := freeAt[k*occW : (k+1)*occW]
		for j := 0; j < occW; j++ {
			acc[j] &= fr[j]
		}
	}
	acc[banWord] &^= banBit
	for j := 0; j < occW; j++ {
		if acc[j] != 0 {
			x.Color = j<<6 + bits.TrailingZeros64(acc[j])
			ctx.attach(i)
			return nil
		}
	}

	// Neighbor-recolor heuristic (paper Fig. 7.b): if some candidate
	// color is blocked by exactly one piece, and that blocker can itself
	// move to a different color for free, displace it and take the color —
	// still zero inserted moves.
	if ctx.tryDisplace(i, c, cr != nil && cr.Intersects(x.Points)) {
		return nil
	}

	// Split: assign a color per point, extending the current run while
	// possible and preferring globally-often-free colors at run starts.
	if cap(ctx.asgScratch) < len(pts) {
		ctx.asgScratch = make([]int, len(pts))
	}
	assign := ctx.asgScratch[:len(pts)]
	cur := -1
	for k := range pts {
		fr := freeAt[k*occW : (k+1)*occW]
		if cur >= 0 && fr[cur>>6]&(1<<(uint(cur)&63)) != 0 {
			assign[k] = cur
			continue
		}
		best, bestFreq := -1, -1
		for j := 0; j < occW; j++ {
			w := fr[j]
			for w != 0 { //lint:invariant w &= w-1 clears one set bit per iteration of a finite word
				col := j<<6 + bits.TrailingZeros64(w)
				if freq[col] > bestFreq {
					best, bestFreq = col, freq[col]
				}
				w &= w - 1
			}
		}
		if best < 0 {
			// Dead end. At a CSB-crossing point this can happen even
			// within the paper's bounds when an *internal* piece squats
			// on a private-capable color; evict it to a spare color. In
			// demote mode (crossingOnly) the banned color stays in the
			// palette as a shared color, so the squatter may take it.
			spareBan := c
			if crossingOnly {
				spareBan = -1
			}
			best = ctx.evictSquatter(x, pts[k], spareBan)
			if best < 0 {
				return errInfeasible{fmt.Sprintf(
					"no color for v%d at point %d (cap=%d size=%d banned=%d)",
					x.Var, pts[k], ctx.Cap, ctx.Size, c)}
			}
		}
		cur = best
		assign[k] = cur
	}

	// Rebuild: one piece per color used, ascending color order; the
	// lowest color reuses piece x in place.
	cols := ctx.idxScratch[:0]
	for k := range pts {
		col := int32(assign[k])
		found := false
		for _, seen := range cols {
			if seen == col {
				found = true
				break
			}
		}
		if !found {
			cols = append(cols, col)
		}
	}
	ctx.idxScratch = cols
	sort.Slice(cols, func(a, b int) bool { return cols[a] < cols[b] })
	first := int(cols[0])
	x.Color = first
	x.Points.Clear()
	for k, p := range pts {
		if assign[k] == first {
			x.Points.Add(p)
		}
	}
	ctx.attach(i) // also restores pieceOf entries already pointing at i
	for _, colv := range cols[1:] {
		col := int(colv)
		s := bitset.New(ctx.np)
		for k, p := range pts {
			if assign[k] == col {
				s.Add(p)
			}
		}
		ctx.addPiece(&Piece{Var: x.Var, Color: col, Points: s})
	}
	return nil
}

// evictSquatter frees a private-capable color for crossing piece x at its
// crossing point p: it finds a co-live piece y that does not itself cross
// p but occupies a color g < Cap, and a spare color h free at p, then
// splits y's point p off into a fresh piece colored h. Returns the freed
// color g, or -1 if no eviction is possible. The extra moves this costs
// are picked up by MoveCost (and usually removed again by coalesce when a
// cheaper candidate color wins). x must be detached.
func (ctx *Context) evictSquatter(x *Piece, p, banned int) int {
	cr := ctx.A.Crossings[x.Var]
	if cr == nil || !cr.Has(p) {
		return -1
	}
	// Spare color h: unused at p by anyone (x is detached, so the occ row
	// holds exactly the other pieces' colors).
	row := ctx.occRow(p)
	h := -1
	for j := 0; j < ctx.occW && h < 0; j++ {
		w := ^row[j] & wordMask(j, ctx.Size)
		if banned >= 0 && j == banned>>6 {
			w &^= 1 << (uint(banned) & 63)
		}
		if w != 0 {
			h = j<<6 + bits.TrailingZeros64(w)
		}
	}
	if h < 0 {
		return -1
	}
	// Squatter y: co-live at p, not crossing p, on a private color !=
	// banned — first match in ascending variable order.
	g, victimIdx := -1, -1
	at := ctx.A.Live.At[p]
	for v := at.NextSet(0); v >= 0; v = at.NextSet(v + 1) {
		if v == x.Var {
			continue
		}
		iy := ctx.PieceAt(v, p)
		if iy < 0 {
			continue
		}
		y := ctx.Pieces[iy]
		if y.Color >= ctx.Cap || y.Color == banned {
			continue
		}
		if cry := ctx.A.Crossings[v]; cry != nil && cry.Has(p) {
			continue // y legitimately needs a private color here
		}
		g, victimIdx = y.Color, iy
		break
	}
	if g < 0 {
		return -1
	}
	victim := ctx.Pieces[victimIdx]
	ctx.touchVar(victim.Var)
	// Split point p off victim onto color h.
	victim.Points.Remove(p)
	if victim.Points.Empty() {
		// Single-point piece: just recolor it in place.
		victim.Points.Add(p)
		ctx.recolorWhole(victimIdx, h)
		return g
	}
	ctx.occClear(p, g)
	ctx.addPiece(&Piece{Var: victim.Var, Color: h, Points: bitsetWith(ctx.np, p)})
	return g
}

// tryDisplace attempts the paper's neighbor-recolor heuristic for piece
// i = x (leaving banned color c): find a candidate color c' whose only
// blocker among x's co-live pieces is a single piece q, where q can
// wholesale-move to yet another color; displace q, give x color c'. Both
// recolorings are whole-piece, so the move cost stays zero. x must be
// detached; on success it is reattached with its new color.
func (ctx *Context) tryDisplace(i, c int, isCrossing bool) bool {
	x := ctx.Pieces[i]
	limit := ctx.Size
	if isCrossing {
		limit = ctx.Cap
	}
	for cand := 0; cand < limit; cand++ {
		if cand == c || cand == x.Color {
			continue
		}
		qi := ctx.soleBlocker(x, cand)
		if qi < 0 {
			continue
		}
		q := ctx.Pieces[qi]
		// Find a free wholesale color for q (not c, not cand, and x's
		// current color does not count as free either: x still holds it
		// until we reassign below — but x is moving to cand, so x's old
		// color IS usable by q as long as no other piece blocks it...
		// keep it conservative and exclude it).
		qLimit := ctx.Size
		if ctx.crosses(q) {
			qLimit = ctx.Cap
		}
		for qc := 0; qc < qLimit; qc++ {
			if qc == c || qc == cand || qc == q.Color || qc == x.Color {
				continue
			}
			if ctx.canTake(q, qc) {
				ctx.touchVar(q.Var)
				ctx.recolorWhole(qi, qc)
				x.Color = cand
				ctx.attach(i)
				return true
			}
		}
	}
	return false
}

// soleBlocker returns the index of the only piece holding color col on
// x's points, or -1 when there is none or more than one. A point has at
// most one holder per color, so the holder of the first shared point is
// the sole blocker iff it covers every shared point.
func (ctx *Context) soleBlocker(x *Piece, col int) int {
	qi := -1
	for j, w := range ctx.colorPoints(col) {
		w &= x.Points[j]
		if w == 0 {
			continue
		}
		if qi < 0 {
			qi = ctx.holderAt(j<<6+bits.TrailingZeros64(w), col)
		}
		if w&^ctx.Pieces[qi].Points[j] != 0 {
			return -1
		}
	}
	return qi
}

// holderAt returns the index of the piece holding color col at point p,
// which colPts records as held.
func (ctx *Context) holderAt(p, col int) int {
	at := ctx.A.Live.At[p]
	for v := at.NextSet(0); v >= 0; v = at.NextSet(v + 1) {
		if i := ctx.PieceAt(v, p); i >= 0 && ctx.Pieces[i].Color == col {
			return i
		}
	}
	panic("intra: colPts holds a color no piece covers") //lint:invariant occupancy index corruption: colPts and the piece list are kept in step by occSet/occClear, so a held (point, color) always has a covering piece
}

func bitsetWith(n, p int) bitset.Set {
	s := bitset.New(n)
	s.Add(p)
	return s
}

// coalesce is the paper's "eliminate unnecessary moves" pass: repeatedly
// merge a split piece into a sibling piece of the same variable whenever
// the sibling's color is legal across the whole piece. Merging never
// increases the move count and strictly reduces the piece count, so the
// loop terminates. Variables are visited in ascending order (the map
// iteration this replaces left the merge order to chance).
func (ctx *Context) coalesce() {
	nv := ctx.A.NumVars
	if cap(ctx.offScratch) < nv+1 {
		ctx.offScratch = make([]int32, nv+1)
	}
	off := ctx.offScratch[:nv+1]
	for k := range off {
		off[k] = 0
	}
	for _, x := range ctx.Pieces {
		off[x.Var+1]++
	}
	multi := false
	for v := 0; v < nv; v++ {
		if off[v+1] > 1 {
			multi = true
		}
		off[v+1] += off[v]
	}
	if !multi {
		return // every variable is in one piece: nothing to merge
	}
	if cap(ctx.idxScratch) < len(ctx.Pieces) {
		ctx.idxScratch = make([]int32, len(ctx.Pieces))
	}
	flat := ctx.idxScratch[:len(ctx.Pieces)]
	// Bucket piece indices by var; ascending index within each bucket.
	cursors := ctx.freqScratch
	if cap(cursors) < nv {
		cursors = make([]int, nv)
		ctx.freqScratch = cursors
	}
	cursors = cursors[:nv]
	for v := 0; v < nv; v++ {
		cursors[v] = int(off[v])
	}
	for i, x := range ctx.Pieces {
		flat[cursors[x.Var]] = int32(i)
		cursors[x.Var]++
	}

	removed := len(ctx.Pieces) // lowest index of a merged-away piece
	for v := 0; v < nv; v++ {
		idxs := flat[off[v]:off[v+1]]
		if len(idxs) < 2 {
			continue
		}
		for again := true; again; { //lint:invariant fixpoint loop: again is only set when two pieces coalesce, and the piece count is finite and strictly decreasing
			again = false
			for _, i32 := range idxs {
				i := int(i32)
				x := ctx.Pieces[i]
				if x == nil {
					continue
				}
				for _, j32 := range idxs {
					j := int(j32)
					y := ctx.Pieces[j]
					if y == nil || i == j {
						continue
					}
					if x.Color != y.Color && !ctx.canTake(x, y.Color) {
						continue
					}
					// Merge x into y.
					if x.Color != y.Color {
						ctx.touchVar(v)
						for p := x.Points.NextSet(0); p >= 0; p = x.Points.NextSet(p + 1) {
							ctx.occClear(p, x.Color)
							ctx.occSet(p, y.Color)
						}
					}
					y.Points.Or(x.Points)
					for pt := x.Points.NextSet(0); pt >= 0; pt = x.Points.NextSet(pt + 1) {
						ctx.pieceOf[ctx.A.Slot(v, pt)] = int32(j)
					}
					ctx.Pieces[i] = nil
					removed, again = min(removed, i), true
					break
				}
			}
		}
	}
	if removed < len(ctx.Pieces) {
		kept := ctx.Pieces[:removed]
		for _, x := range ctx.Pieces[removed:] {
			if x != nil {
				kept = append(kept, x)
			}
		}
		// Clear the compacted-over tail: copyFrom reuses the backing array's
		// spare slots as scratch Piece structs, and a stale pointer here
		// would alias a live slot shifted down during compaction.
		tail := ctx.Pieces[len(kept):]
		for i := range tail {
			tail[i] = nil
		}
		ctx.Pieces = kept
		ctx.rebuildPieceIndex(removed)
	}
}

// canTake reports whether piece x could legally adopt color col: no piece
// of another variable holding col overlaps x. Pieces of x's own variable
// are disjoint from x, so that is one intersection with col's point set —
// unless x itself holds col, where the proper coloring already rules out
// any other holder on x's points.
func (ctx *Context) canTake(x *Piece, col int) bool {
	if col < 0 || col >= ctx.Size {
		return false
	}
	if col >= ctx.Cap && ctx.crosses(x) {
		return false
	}
	return col == x.Color || !ctx.colorPoints(col).Intersects(x.Points)
}
