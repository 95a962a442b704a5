package intra

import (
	"fmt"

	"npra/internal/core/errs"
	"npra/internal/ir"
)

// RewriteStats reports what the rewriter emitted.
type RewriteStats struct {
	Moves       int // mov instructions inserted
	Xors        int // xor instructions inserted for copy cycles
	Trampolines int // blocks added to split critical edges
}

// Added returns the total instructions added (excluding trampoline br).
func (s RewriteStats) Added() int { return s.Moves + s.Xors }

// Rewrite materializes a context onto physical registers: every operand
// is renamed to phys[color of the piece live at that point], and a move
// (or xor-swap sequence, for cyclic shuffles) is inserted on every CFG
// edge along which some variable changes piece color. phys must provide
// at least ctx.Size distinct registers.
//
// The result is a new, built function over physical registers that is
// observationally equivalent to the original.
func Rewrite(ctx *Context, phys []ir.Reg) (*ir.Func, RewriteStats, error) {
	return RewriteInto(ctx, phys, nil)
}

// RewriteInto is Rewrite with the output's Blocks and Instrs carved out
// of an arena (nil behaves exactly like Rewrite). The returned *ir.Func
// header itself is heap-allocated; only its bulk — block headers and
// instruction slices — lives in the arena, so the func is valid exactly
// as long as the arena's chunks are reachable (which the func's own
// pointers guarantee). Callers must not hand arena-backed funcs to a
// cache: one retained entry would pin the whole request's slabs.
func RewriteInto(ctx *Context, phys []ir.Reg, arena *ir.Arena) (*ir.Func, RewriteStats, error) {
	var stats RewriteStats
	if len(phys) < ctx.Size {
		return nil, stats, errs.Invalidf("intra: need %d physical registers, got %d", ctx.Size, len(phys))
	}
	seen := make(map[ir.Reg]bool, len(phys))
	maxPhys := ir.Reg(-1)
	for _, r := range phys[:ctx.Size] {
		if r < 0 {
			return nil, stats, errs.Invalidf("intra: negative physical register %d", r)
		}
		if seen[r] {
			return nil, stats, errs.Invalidf("intra: duplicate physical register %d", r)
		}
		seen[r] = true
		if r > maxPhys {
			maxPhys = r
		}
	}

	f := ctx.A.F
	mapReg := func(v ir.Reg, p int) (ir.Reg, error) {
		c := ctx.ColorAt(int(v), p)
		if c < 0 {
			return 0, fmt.Errorf("intra: v%d has no piece at point %d", v, p)
		}
		return phys[c], nil
	}

	nf := &ir.Func{Name: f.Name, Physical: true}
	newBlock := func(label string, est int) *ir.Block {
		if arena == nil {
			return &ir.Block{Label: label}
		}
		nb := arena.Block()
		nb.Label = label
		nb.Instrs = arena.InstrSlice(est)
		return nb
	}
	trampolines := 0
	var tail []*ir.Block    // taken-edge trampolines, appended at the end
	var pairsBuf []copyPair // reused across edges; consumed by appendParallelCopy
	var rerr error
	fail := func(err error) {
		if rerr == nil {
			rerr = err
		}
	}

	for bi, b := range f.Blocks {
		// Capacity estimate: the source instructions plus a little room
		// for inline parallel-copy moves; overflow spills to the heap.
		nb := newBlock(b.Label, len(b.Instrs)+8)
		for k := range b.Instrs {
			p := b.Start() + k
			in := b.Instrs[k] // copy
			if in.Def != ir.NoReg {
				r, err := mapReg(in.Def, p)
				if err != nil {
					fail(err)
				}
				in.Def = r
			}
			if in.A != ir.NoReg {
				r, err := mapReg(in.A, p)
				if err != nil {
					fail(err)
				}
				in.A = r
			}
			if in.B != ir.NoReg {
				r, err := mapReg(in.B, p)
				if err != nil {
					fail(err)
				}
				in.B = r
			}

			last := k == len(b.Instrs)-1
			if !last {
				// Straight-line edge p -> p+1: moves go right after p.
				nb.Instrs = append(nb.Instrs, in)
				pairsBuf = ctx.edgeCopies(p, p+1, phys, pairsBuf[:0])
				nb.Instrs = appendParallelCopy(nb.Instrs, pairsBuf, &stats)
				continue
			}

			// Block end: the taken edge (branches) gets a trampoline at
			// the function tail; the fallthrough edge gets an inline
			// trampoline placed directly after this block.
			if in.IsBranch() {
				target := f.Blocks[f.BlockByLabel(in.Target)]
				pairs := ctx.edgeCopies(p, target.Start(), phys, pairsBuf[:0])
				pairsBuf = pairs
				if len(pairs) > 0 {
					trampolines++
					lbl := fmt.Sprintf(".mvt%d", trampolines)
					tb := newBlock(lbl, 3*len(pairs)+1)
					tb.Instrs = appendParallelCopy(tb.Instrs, pairs, &stats)
					tb.Instrs = append(tb.Instrs, ir.Instr{
						Op: ir.OpBr, Def: ir.NoReg, A: ir.NoReg, B: ir.NoReg, Target: in.Target,
					})
					tail = append(tail, tb)
					in.Target = lbl
					stats.Trampolines++
				}
			}
			nb.Instrs = append(nb.Instrs, in)
			nf.Blocks = append(nf.Blocks, nb)

			if !in.IsUncond() && bi+1 < len(f.Blocks) {
				next := f.Blocks[bi+1]
				pairs := ctx.edgeCopies(p, next.Start(), phys, pairsBuf[:0])
				pairsBuf = pairs
				if len(pairs) > 0 {
					trampolines++
					fb := newBlock(fmt.Sprintf(".mvf%d", trampolines), 3*len(pairs))
					fb.Instrs = appendParallelCopy(fb.Instrs, pairs, &stats)
					nf.Blocks = append(nf.Blocks, fb)
					stats.Trampolines++
				}
			}
		}
	}
	if rerr != nil {
		return nil, stats, rerr
	}
	nf.Blocks = append(nf.Blocks, tail...)
	nf.NumRegs = int(maxPhys) + 1
	if err := nf.Build(); err != nil {
		return nil, stats, fmt.Errorf("intra: rewritten function invalid: %w", err)
	}
	return nf, stats, nil
}

// copyPair is one register transfer on an edge: dst receives src's value.
type copyPair struct{ dst, src ir.Reg }

// edgeCopies appends to pairs the register transfers needed on the CFG
// edge p -> q: variables live along the edge whose pieces at the two
// ends have different colors. Callers pass a reused buffer ([:0]) so the
// per-edge scan allocates nothing.
func (ctx *Context) edgeCopies(p, q int, phys []ir.Reg, pairs []copyPair) []copyPair {
	a := ctx.A
	out, in := a.Live.Out[p], a.Live.In[q]
	for v := out.NextSet(0); v >= 0; v = out.NextSet(v + 1) {
		if !in.Has(v) {
			continue
		}
		// v is live at both ends, so both slots exist; on a fallthrough
		// edge q is v's next live point and takes the next slot.
		sp := a.Slot(v, p)
		sq := sp + 1
		if q != p+1 {
			sq = a.Slot(v, q)
		}
		xs, xd := ctx.pieceOf[sp], ctx.pieceOf[sq]
		if xs == xd {
			continue
		}
		cs, cd := ctx.Pieces[xs].Color, ctx.Pieces[xd].Color
		if cs == cd {
			continue
		}
		pairs = append(pairs, copyPair{dst: phys[cd], src: phys[cs]})
	}
	return pairs
}

// appendParallelCopy sequentializes a parallel copy. All dsts are distinct
// and all srcs are distinct (they are colors of co-live pieces). Transfers
// whose destination is not another pending source are emitted as movs;
// remaining transfers form disjoint cycles, which are rotated in place
// with xor-swaps so no scratch register is needed (the register file may
// be fully occupied at a switch boundary).
// It consumes pairs as scratch (reordering and truncating in place).
func appendParallelCopy(out []ir.Instr, pairs []copyPair, stats *RewriteStats) []ir.Instr {
	pending := pairs[:0]
	for _, pr := range pairs {
		if pr.dst != pr.src {
			pending = append(pending, pr)
		}
	}
	for len(pending) > 0 { //lint:invariant each round either emits at least one unblocked copy (shrinking pending) or extracts a rotation cycle; pending strictly shrinks
		progress := false
		for i := 0; i < len(pending); { //lint:invariant i advances on keep, and removal shrinks len(pending); the scan always terminates
			blocked := false
			for j := range pending {
				if j != i && pending[j].src == pending[i].dst {
					blocked = true
					break
				}
			}
			if blocked {
				i++
				continue
			}
			out = append(out, ir.Instr{Op: ir.OpMov, Def: pending[i].dst, A: pending[i].src, B: ir.NoReg})
			stats.Moves++
			pending[i] = pending[len(pending)-1]
			pending = pending[:len(pending)-1]
			progress = true
		}
		if progress {
			continue
		}
		// Only cycles remain. Extract one starting at pending[0]:
		// d0 <- d1 <- d2 <- ... <- dk-1 <- d0. Rotate with k-1 swaps.
		cycle := []ir.Reg{pending[0].dst}
		cur := pending[0].src
		for cur != cycle[0] { //lint:invariant walks a single permutation cycle of the finite pending set back to its start
			cycle = append(cycle, cur)
			found := false
			for _, pr := range pending {
				if pr.dst == cur {
					cur = pr.src
					found = true
					break
				}
			}
			if !found {
				panic("intra: broken copy cycle") //lint:invariant parallel-copy semantics guarantee the source of every cycle element is another element; a missing link means the move graph is corrupt
			}
		}
		for i := 0; i+1 < len(cycle); i++ {
			a, b := cycle[i], cycle[i+1]
			out = append(out,
				ir.Instr{Op: ir.OpXor, Def: a, A: a, B: b},
				ir.Instr{Op: ir.OpXor, Def: b, A: a, B: b},
				ir.Instr{Op: ir.OpXor, Def: a, A: a, B: b},
			)
			stats.Xors += 3
		}
		// Remove the cycle's pairs from pending (cycles are short; a
		// linear membership scan beats a map here).
		rest := pending[:0]
		for _, pr := range pending {
			hit := false
			for _, r := range cycle {
				if pr.dst == r {
					hit = true
					break
				}
			}
			if !hit {
				rest = append(rest, pr)
			}
		}
		pending = rest
	}
	return out
}
