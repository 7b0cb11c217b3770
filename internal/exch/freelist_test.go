package exch

import (
	"runtime"
	"sync"
	"testing"
)

// TestFreeListConcurrentHoldersDisjoint: goroutines sharing one list
// (every rank of an in-process world shares mpi's) never hold the same
// buffer at once — each fills what it got, yields, and finds its own
// values still there.
func TestFreeListConcurrentHoldersDisjoint(t *testing.T) {
	var fl FreeList[complex128]
	var wg sync.WaitGroup
	for g := 1; g <= 4; g++ {
		wg.Add(1)
		go func(id complex128) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				b := fl.Get(256 + 64*(i%5))
				for j := range b {
					b[j] = id
				}
				runtime.Gosched()
				for j := range b {
					if b[j] != id {
						t.Errorf("holder %v: element %d overwritten by %v", id, j, b[j])
						return
					}
				}
				fl.Put(b)
			}
		}(complex(float64(g), 0))
	}
	wg.Wait()
}

// TestFreeListBestFitFloorAndBound pins the list's three rules: Get hands
// out the smallest idle buffer that fits, the most recent among equals;
// buffers under 4 KiB bypass the list; at most 16 stay idle, the oldest
// dropped first, so a list full of stale sizes still takes new ones.
func TestFreeListBestFitFloorAndBound(t *testing.T) {
	var fl FreeList[complex128] // 16 B elements: the floor is 256 of them
	small, mid, big, twin := make([]complex128, 300), make([]complex128, 500), make([]complex128, 900), make([]complex128, 500)
	for _, b := range [][]complex128{big, small, mid, twin} {
		fl.Put(b)
	}
	if got := fl.Get(400); &got[0] != &twin[0] || len(got) != 400 {
		t.Errorf("Get(400) did not return the most recent 500-element buffer")
	}
	if got := fl.Get(400); &got[0] != &mid[0] {
		t.Errorf("Get(400) did not return the remaining 500-element buffer")
	}
	if got := fl.Get(1000); &got[0] == &big[0] || len(got) != 1000 {
		t.Errorf("Get(1000) reused a buffer too small for it")
	}

	ctl := make([]complex128, 100) // 1.6 KB: control-sized
	fl.Put(ctl)
	if got := fl.Get(100); &got[0] == &ctl[0] {
		t.Error("a control-sized buffer entered the list")
	}
	if got := fl.Get(256); &got[0] != &small[0] {
		t.Error("a 4 KiB request did not reuse the smallest idle buffer")
	}

	var bounded FreeList[byte]
	stale := make([][]byte, maxFree)
	for i := range stale {
		stale[i] = make([]byte, minPooledBytes)
		bounded.Put(stale[i])
	}
	fresh := make([]byte, 2*minPooledBytes)
	bounded.Put(fresh)
	if n := len(bounded.free); n != maxFree {
		t.Errorf("%d idle buffers kept, want the bound %d", n, maxFree)
	}
	if got := bounded.Get(2 * minPooledBytes); &got[0] != &fresh[0] {
		t.Error("a full list dropped the newest buffer instead of the oldest")
	}
	for _, b := range bounded.free {
		if &b[0] == &stale[0][0] {
			t.Error("the oldest idle buffer survived an overflow")
		}
	}
}
