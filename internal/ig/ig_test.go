package ig

import (
	"math/rand"
	"testing"
	"testing/quick"

	"npra/internal/bench"
	"npra/internal/ir"
)

// checksum mirrors the paper's Figure 4/5 example: sum, buf (v1) and len
// (v2) are live across CSBs (boundary nodes forming a BIG clique), while
// the per-iteration temporaries tmp1 (v4) and tmp2 (v5) live in different
// NSRs (internal nodes, mutually non-interfering — Claim 2).
const checksum = `
func ipchk
entry:
	set v0, 0        ; sum. buf=v1, len=v2 are live-in.
loop:
	bz v2, fold
	andi v3, v2, 1
	bnz v3, odd
	load v4, [v1+0]  ; tmp1
	add v0, v0, v4
	addi v1, v1, 4
	subi v2, v2, 1
	ctx
	br loop
odd:
	load v5, [v1+0]  ; tmp2
	andi v5, v5, 0xFFFF
	add v0, v0, v5
	addi v1, v1, 4
	subi v2, v2, 1
	ctx
	br loop
fold:
	shri v6, v0, 16
	andi v0, v0, 0xFFFF
	add v0, v0, v6
	not v7, v0
	store [8192], v7
	halt
`

func TestNodeClassification(t *testing.T) {
	a := Analyze(ir.MustParse(checksum))
	wantBoundary := map[int]bool{0: true, 1: true, 2: true}
	for v := 0; v < a.NumVars; v++ {
		if a.Boundary[v] != wantBoundary[v] {
			t.Errorf("Boundary[v%d] = %v, want %v", v, a.Boundary[v], wantBoundary[v])
		}
		if !a.Alive[v] {
			t.Errorf("v%d dead, want live", v)
		}
	}
	if got := a.LiveRanges(); got != 8 {
		t.Errorf("LiveRanges = %d, want 8", got)
	}
}

func TestBIGClique(t *testing.T) {
	a := Analyze(ir.MustParse(checksum))
	for _, e := range [][2]int{{0, 1}, {0, 2}, {1, 2}} {
		if !a.BIG.HasEdge(e[0], e[1]) {
			t.Errorf("BIG missing edge v%d-v%d", e[0], e[1])
		}
		if !a.GIG.HasEdge(e[0], e[1]) {
			t.Errorf("GIG missing edge v%d-v%d", e[0], e[1])
		}
	}
	// Internal nodes never appear in the BIG.
	for _, v := range []int{3, 4, 5, 6, 7} {
		if a.BIG.Degree(v) != 0 {
			t.Errorf("internal node v%d has BIG degree %d", v, a.BIG.Degree(v))
		}
	}
}

func TestClaim2InternalSeparation(t *testing.T) {
	a := Analyze(ir.MustParse(checksum))
	// tmp1 (v4) and tmp2 (v5) live in different NSRs: no interference.
	if a.GIG.HasEdge(4, 5) {
		t.Errorf("tmp1 and tmp2 interfere but live in disjoint NSRs")
	}
	if a.Regions[4].Intersects(a.Regions[5]) {
		t.Errorf("tmp1/tmp2 regions overlap: %v vs %v",
			a.Regions[4].Elems(nil), a.Regions[5].Elems(nil))
	}
	// Both interfere with sum.
	if !a.GIG.HasEdge(0, 4) || !a.GIG.HasEdge(0, 5) {
		t.Errorf("temporaries do not interfere with sum")
	}
	// IIG membership: each temp in exactly one region's IIG.
	iigs := a.IIGMembers()
	count4, count5 := 0, 0
	for _, m := range iigs {
		if m.Has(4) {
			count4++
		}
		if m.Has(5) {
			count5++
		}
		if m.Has(0) || m.Has(1) || m.Has(2) {
			t.Errorf("boundary node in IIG membership")
		}
	}
	if count4 != 1 || count5 != 1 {
		t.Errorf("tmp membership counts = %d, %d; want 1, 1", count4, count5)
	}
}

func buildCycle(n int) *Graph {
	g := NewGraph(n)
	for i := 0; i < n; i++ {
		g.AddEdge(i, (i+1)%n)
	}
	return g
}

func TestGreedyColoringKnownGraphs(t *testing.T) {
	// Odd cycle: 3 colors.
	c5 := buildCycle(5)
	colors, n := c5.GreedyColor(c5.SmallestLastOrder(nil), nil)
	if n != 3 {
		t.Errorf("C5 colors = %d, want 3", n)
	}
	if u, v := c5.VerifyColoring(colors); u >= 0 {
		t.Errorf("C5 conflict %d-%d", u, v)
	}
	// Even cycle: 2 colors.
	c6 := buildCycle(6)
	_, n = c6.GreedyColor(c6.SmallestLastOrder(nil), nil)
	if n != 2 {
		t.Errorf("C6 colors = %d, want 2", n)
	}
	// Complete graph K4: 4 colors, clique bound 4.
	k4 := NewGraph(4)
	for i := 0; i < 4; i++ {
		for j := i + 1; j < 4; j++ {
			k4.AddEdge(i, j)
		}
	}
	_, n = k4.GreedyColor(k4.SmallestLastOrder(nil), nil)
	if n != 4 {
		t.Errorf("K4 colors = %d, want 4", n)
	}
	if lb := k4.MaxCliqueLower(); lb != 4 {
		t.Errorf("K4 clique bound = %d, want 4", lb)
	}
}

func TestGreedyColorRespectsFixed(t *testing.T) {
	g := buildCycle(4)
	colors := []int{-1, -1, -1, -1}
	colors[0] = 7 // force an exotic fixed color
	order := []int{1, 2, 3, 0}
	colors, _ = g.GreedyColor(order, colors)
	if colors[0] != 7 {
		t.Errorf("fixed color overwritten: %d", colors[0])
	}
	if u, v := g.VerifyColoring(colors); u >= 0 {
		t.Errorf("conflict %d-%d in %v", u, v, colors)
	}
}

// Property: greedy coloring is always proper, and uses at most
// max-degree+1 colors, on random graphs.
func TestQuickColoringProper(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(40)
		g := NewGraph(n)
		for i := 0; i < n*2; i++ {
			g.AddEdge(rng.Intn(n), rng.Intn(n))
		}
		colors, used := g.GreedyColor(g.SmallestLastOrder(nil), nil)
		if u, _ := g.VerifyColoring(colors); u >= 0 {
			return false
		}
		maxDeg := 0
		for v := 0; v < n; v++ {
			if d := g.Degree(v); d > maxDeg {
				maxDeg = d
			}
		}
		return used <= maxDeg+1 && used >= g.MaxCliqueLower()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: every GIG edge corresponds to an actual co-live point, and
// every BIG edge implies a GIG edge.
func TestBIGSubsetOfGIG(t *testing.T) {
	a := Analyze(ir.MustParse(checksum))
	for u := 0; u < a.NumVars; u++ {
		for v := u + 1; v < a.NumVars; v++ {
			if a.BIG.HasEdge(u, v) && !a.GIG.HasEdge(u, v) {
				t.Errorf("BIG edge v%d-v%d missing from GIG", u, v)
			}
			if a.GIG.HasEdge(u, v) && !a.Points[u].Intersects(a.Points[v]) {
				t.Errorf("GIG edge v%d-v%d without co-live point", u, v)
			}
			if !a.GIG.HasEdge(u, v) && a.Points[u].Intersects(a.Points[v]) {
				t.Errorf("co-live pair v%d-v%d missing GIG edge", u, v)
			}
		}
	}
}

// TestEdgesAndReset checks the popcount edge counter against a naive
// pairwise count, and that Reset returns the storage to an empty graph
// that can be rebuilt to an identical shape.
func TestEdgesAndReset(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const n = 90
	g := NewGraph(n)
	naive := 0
	type edge struct{ u, v int }
	var edges []edge
	for i := 0; i < 400; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u == v {
			continue
		}
		if !g.HasEdge(u, v) {
			naive++
		}
		g.AddEdge(u, v)
		edges = append(edges, edge{u, v})
	}
	if got := g.Edges(); got != naive {
		t.Fatalf("Edges() = %d, naive count %d", got, naive)
	}

	g.Reset()
	if got := g.Edges(); got != 0 {
		t.Fatalf("Edges() after Reset = %d, want 0", got)
	}
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			if g.HasEdge(u, v) {
				t.Fatalf("edge (%d,%d) survived Reset", u, v)
			}
		}
	}

	// Rebuild on the reused storage: same edge set as a fresh graph.
	fresh := NewGraph(n)
	for _, e := range edges {
		g.AddEdge(e.u, e.v)
		fresh.AddEdge(e.u, e.v)
	}
	if g.Edges() != fresh.Edges() {
		t.Fatalf("rebuilt Edges() = %d, fresh %d", g.Edges(), fresh.Edges())
	}
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			if g.HasEdge(u, v) != fresh.HasEdge(u, v) {
				t.Fatalf("rebuilt/fresh disagree on edge (%d,%d)", u, v)
			}
		}
	}
}

// TestSlotNumbering checks the live-slot numbering on a one-word and a
// multi-word function: Slot maps the live (var, point) pairs one-to-one
// onto [0, NumSlots), in ascending point order per variable, returns -1
// everywhere else, and SlotEdges is VarEdges translated pair by pair.
func TestSlotNumbering(t *testing.T) {
	md5, err := bench.Get("md5")
	if err != nil {
		t.Fatal(err)
	}
	wide := md5.Gen(4)
	if wide.NumPoints() <= 64 {
		t.Fatalf("md5 has %d points: too few for multi-word rank rows", wide.NumPoints())
	}
	for _, f := range []*ir.Func{ir.MustParse(checksum), wide} {
		a := Analyze(f)
		next := 0
		for v := 0; v < a.NumVars; v++ {
			for p := 0; p < f.NumPoints(); p++ {
				got := a.Slot(v, p)
				if !a.Points[v].Has(p) {
					if got != -1 {
						t.Fatalf("%s: Slot(v%d, %d) = %d off the live range, want -1", f.Name, v, p, got)
					}
					continue
				}
				if got != next {
					t.Fatalf("%s: Slot(v%d, %d) = %d, want %d", f.Name, v, p, got, next)
				}
				next++
			}
			for k, p := range a.VarEdges[v] {
				if got, want := a.SlotEdges[v][k], int32(a.Slot(v, int(p))); got != want {
					t.Fatalf("%s: SlotEdges[v%d][%d] = %d, want %d", f.Name, v, k, got, want)
				}
			}
		}
		if next != a.NumSlots {
			t.Errorf("%s: %d live pairs, NumSlots = %d", f.Name, next, a.NumSlots)
		}
	}
}
