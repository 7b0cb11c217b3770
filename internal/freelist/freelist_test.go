package freelist

import (
	"runtime"
	"sync"
	"testing"
)

// TestListSurvivesGC: a put value comes back after two collections and
// from another goroutine — the two ways a sync.Pool loses it.
func TestListSurvivesGC(t *testing.T) {
	var l List[*[64]byte]
	want := new([64]byte)
	l.Put(want)
	runtime.GC()
	runtime.GC()
	got := make(chan *[64]byte)
	go func() { v, _ := l.Get(nil); got <- v }()
	if v := <-got; v != want {
		t.Fatalf("Get after two GCs on another goroutine = %p, want %p", v, want)
	}
	if v, ok := l.Get(nil); ok {
		t.Fatalf("empty list handed out %p", v)
	}
}

// TestListKeep: Get pops the most recent value keep accepts and leaves
// the others in place.
func TestListKeep(t *testing.T) {
	var l List[int]
	for _, v := range []int{1, 2, 3, 4} {
		l.Put(v)
	}
	odd := func(v int) bool { return v%2 == 1 }
	for _, want := range []int{3, 1} {
		if v, ok := l.Get(odd); !ok || v != want {
			t.Fatalf("Get(odd) = %d, %v; want %d", v, ok, want)
		}
	}
	if v, ok := l.Get(odd); ok {
		t.Fatalf("Get(odd) = %d from a list of evens", v)
	}
	for _, want := range []int{4, 2} {
		if v, ok := l.Get(nil); !ok || v != want {
			t.Fatalf("Get(nil) = %d, %v; want %d", v, ok, want)
		}
	}
}

// TestListConcurrentHoldersDisjoint: goroutines sharing one list never
// hold the same value at once.
func TestListConcurrentHoldersDisjoint(t *testing.T) {
	var l List[*int]
	var held sync.Map
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				v, ok := l.Get(nil)
				if !ok {
					v = new(int)
				}
				if _, dup := held.LoadOrStore(v, true); dup {
					t.Error("value handed to two holders at once")
					return
				}
				held.Delete(v)
				l.Put(v)
			}
		}()
	}
	wg.Wait()
}
