package intra

import (
	"runtime"
	"testing"

	"npra/internal/bench"
)

// TestFootprintTracksRetainedHeap pins Footprint, which bounds the
// function cache and feeds its byte metrics, to the heap a fully solved
// md5 allocator really retains: building it and solving every budget in
// its bounds lattice must grow the live heap by between half and twice
// the estimate.
func TestFootprintTracksRetainedHeap(t *testing.T) {
	b, err := bench.Get("md5")
	if err != nil {
		t.Fatal(err)
	}
	f := b.Gen(48)

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	al := MustNew(f)
	bd := al.Bounds()
	for pr := bd.MaxPR; pr >= bd.MinPR; pr-- {
		for r := bd.MaxR; r >= bd.MinR && r >= pr; r-- {
			if _, err := al.Solve(pr, r-pr); err != nil {
				t.Fatalf("Solve(%d, %d): %v", pr, r-pr, err)
			}
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	foot := al.Footprint()
	runtime.KeepAlive(al)

	retained := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	t.Logf("md5: Footprint %d bytes, retained heap %d bytes (%d contexts)", foot, retained, len(al.memo))
	if foot > 2*retained || retained > 2*foot {
		t.Errorf("Footprint %d bytes is not within 2x of the retained heap %d bytes", foot, retained)
	}
}
