package ig

import (
	"math/bits"

	"npra/internal/bitset"
	"npra/internal/ir"
	"npra/internal/liveness"
	"npra/internal/nsr"
)

// Analysis bundles everything the allocators need to know about one
// thread's function: liveness, the NSR partition, node classification and
// the interference graphs.
type Analysis struct {
	F    *ir.Func
	Live *liveness.Info
	NSR  *nsr.Info

	// NumVars is the node count (one node per virtual register).
	NumVars int

	// Alive[v] reports whether v is live anywhere (dead variables are
	// excluded from the graphs and need no register).
	Alive []bool

	// Boundary[v] reports whether v is live across at least one CSB.
	Boundary []bool

	// Crossings[v] is the set of CSB points v is live across (nil for
	// internal nodes). Indexed by program point.
	Crossings []bitset.Set

	// Regions[v] is the set of NSR ids containing a point of v.
	Regions []bitset.Set

	// Points[v] is v's live point set (liveness.Points).
	Points []bitset.Set

	// GIG has an edge {u,v} iff u and v are co-live at some program point.
	GIG *Graph

	// BIG has an edge {u,v} iff u and v are both live across the same CSB.
	BIG *Graph

	// VarEdges[v] lists the CFG edges v's value flows along, flattened
	// as (p, q) point pairs: q is a successor of p with v live-out of p
	// and live-in to q. The intra-thread allocator prices the move cost
	// of a piece partition per variable from this list; computing it
	// once here lets cost evaluation after a split touch only the
	// variables the split changed instead of re-walking every edge.
	VarEdges [][]int32

	// NumSlots counts the live (var, point) pairs. Slot numbers them
	// densely, v's live points taking consecutive slots in ascending
	// point order, so that tables indexed by slot skip the points where
	// a variable is dead.
	NumSlots int

	// SlotEdges[v] is VarEdges[v] with every point replaced by its slot.
	SlotEdges [][]int32

	slotW    int        // words per point set
	slotRank []rankWord // [v*slotW+w]: Slot's rank table
}

// rankWord is word w of a variable's live point set together with the
// slot of the first live point in that word.
type rankWord struct {
	live  uint64
	first int32
}

// Analyze runs liveness, NSR construction and interference-graph building
// for a built function.
func Analyze(f *ir.Func) *Analysis {
	live := liveness.Compute(f)
	regions := nsr.Compute(f)
	return analyzeWith(f, live, regions)
}

func analyzeWith(f *ir.Func, live *liveness.Info, regions *nsr.Info) *Analysis {
	nv := f.NumRegs
	np := f.NumPoints()
	a := &Analysis{
		F: f, Live: live, NSR: regions, NumVars: nv,
		Alive:     make([]bool, nv),
		Boundary:  make([]bool, nv),
		Crossings: make([]bitset.Set, nv),
		Regions:   make([]bitset.Set, nv),
		Points:    live.Points(),
		GIG:       NewGraph(nv),
		BIG:       NewGraph(nv),
	}
	for v := 0; v < nv; v++ {
		a.Regions[v] = bitset.New(regions.NumRegions)
		if !a.Points[v].Empty() {
			a.Alive[v] = true
		}
	}
	for p := 0; p < np; p++ {
		at := live.At[p]
		a.GIG.AddClique(at)
		r := regions.Region[p]
		for v := at.NextSet(0); v >= 0; v = at.NextSet(v + 1) {
			a.Regions[v].Add(r)
		}
	}
	// Live-slot numbering (see the NumSlots field comment).
	a.slotW = (np + 63) / 64
	a.slotRank = make([]rankWord, nv*a.slotW)
	next := int32(0)
	for v := 0; v < nv; v++ {
		for w, word := range a.Points[v] {
			a.slotRank[v*a.slotW+w] = rankWord{live: word, first: next}
			next += int32(bits.OnesCount64(word))
		}
	}
	a.NumSlots = int(next)
	// Per-variable flow edges (see the VarEdges field comment) and their
	// slot pairs. A counting sweep sizes every list first, so each kind
	// is cut from one exactly sized array.
	var succs []int
	sweep := func(visit func(v, p, q int)) {
		for p := 0; p < np; p++ {
			succs = f.PointSuccs(p, succs[:0])
			out := live.Out[p]
			for _, q := range succs {
				in := live.In[q]
				for v := out.NextSet(0); v >= 0; v = out.NextSet(v + 1) {
					if in.Has(v) {
						visit(v, p, q)
					}
				}
			}
		}
	}
	end := make([]int, nv+1) // v's lists span [end[v], end[v+1])
	sweep(func(v, _, _ int) { end[v+1] += 2 })
	for v := 0; v < nv; v++ {
		end[v+1] += end[v]
	}
	pts, slots := make([]int32, end[nv]), make([]int32, end[nv])
	a.VarEdges, a.SlotEdges = make([][]int32, nv), make([][]int32, nv)
	for v := 0; v < nv; v++ {
		a.VarEdges[v] = pts[end[v]:end[v]:end[v+1]]
		a.SlotEdges[v] = slots[end[v]:end[v]:end[v+1]]
	}
	sweep(func(v, p, q int) {
		sp := a.Slot(v, p)
		sq := sp + 1 // a fallthrough q is v's next live point
		if q != p+1 {
			sq = a.Slot(v, q)
		}
		a.VarEdges[v] = append(a.VarEdges[v], int32(p), int32(q))
		a.SlotEdges[v] = append(a.SlotEdges[v], int32(sp), int32(sq))
	})
	for _, p := range regions.CSBs {
		across, err := live.LiveAcross(p)
		if err != nil {
			continue // unreachable: regions.CSBs holds only CSB points
		}
		a.BIG.AddClique(across)
		across.ForEach(func(v int) {
			a.Boundary[v] = true
			if a.Crossings[v] == nil {
				a.Crossings[v] = bitset.New(np)
			}
			a.Crossings[v].Add(p)
		})
	}
	// The entry point is a boundary too: a value live-in at entry reads
	// the zero-initialized register file, and that zero must survive the
	// other threads running before this one starts — so it needs a
	// private register (point 0 is recorded as its crossing).
	if np > 0 {
		entry := live.EntryLive()
		a.BIG.AddClique(entry)
		entry.ForEach(func(v int) {
			a.Boundary[v] = true
			if a.Crossings[v] == nil {
				a.Crossings[v] = bitset.New(np)
			}
			a.Crossings[v].Add(0)
		})
	}
	return a
}

// Slot returns the slot of the (v, p) pair (see NumSlots), or -1 when v
// is not live at p.
func (a *Analysis) Slot(v, p int) int {
	r := a.slotRank[v*a.slotW+p>>6]
	bit := uint64(1) << (uint(p) & 63)
	if r.live&bit == 0 {
		return -1
	}
	return int(r.first) + bits.OnesCount64(r.live&(bit-1))
}

// SlotBytes estimates the memory the slot numbering holds: the rank
// table behind Slot plus SlotEdges.
func (a *Analysis) SlotBytes() int64 {
	n := int64(len(a.slotRank)) * 16
	for _, e := range a.SlotEdges {
		n += int64(len(e))*4 + 24 // elements + slice header
	}
	return n
}

// InternalNodes returns the set of live internal (non-boundary) nodes.
func (a *Analysis) InternalNodes() bitset.Set {
	s := bitset.New(a.NumVars)
	for v := 0; v < a.NumVars; v++ {
		if a.Alive[v] && !a.Boundary[v] {
			s.Add(v)
		}
	}
	return s
}

// BoundaryNodes returns the set of boundary nodes.
func (a *Analysis) BoundaryNodes() bitset.Set {
	s := bitset.New(a.NumVars)
	for v := 0; v < a.NumVars; v++ {
		if a.Boundary[v] {
			s.Add(v)
		}
	}
	return s
}

// LiveRanges returns the number of live nodes (the paper's "#live ranges"
// column).
func (a *Analysis) LiveRanges() int {
	n := 0
	for v := 0; v < a.NumVars; v++ {
		if a.Alive[v] {
			n++
		}
	}
	return n
}

// IIGMembers returns, for each NSR, the set of internal nodes live in it
// (the node sets of the paper's IIGs). Interference edges among them are
// read from the GIG: by Claim 2 of the paper, internal nodes of different
// NSRs never interfere, so the GIG restricted to an IIG's members is
// exactly that IIG.
func (a *Analysis) IIGMembers() []bitset.Set {
	out := make([]bitset.Set, a.NSR.NumRegions)
	for r := range out {
		out[r] = bitset.New(a.NumVars)
	}
	internal := a.InternalNodes()
	internal.ForEach(func(v int) {
		a.Regions[v].ForEach(func(r int) { out[r].Add(v) })
	})
	return out
}
