// Package freelist keeps a plan's idle scratch for reuse.
package freelist

import (
	"slices"
	"sync"
)

// List is a mutex-guarded stack of idle values, kept instead of a
// sync.Pool: the GC never empties it and no per-P cache hides an entry
// from a Get on another P, so a warm plan never re-allocates its scratch.
// It holds at most the peak number of values out at once. The zero value
// is ready and safe for concurrent use.
type List[T any] struct {
	mu   sync.Mutex
	free []T
}

// Get pops the most recently put value that keep accepts (any value when
// keep is nil); ok is false when there is none.
func (l *List[T]) Get(keep func(T) bool) (v T, ok bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for i := len(l.free) - 1; i >= 0; i-- {
		if keep == nil || keep(l.free[i]) {
			v = l.free[i]
			l.free = slices.Delete(l.free, i, i+1)
			return v, true
		}
	}
	return v, false
}

// Put returns a value nothing references any more.
func (l *List[T]) Put(v T) {
	l.mu.Lock()
	l.free = append(l.free, v)
	l.mu.Unlock()
}

// Len returns the number of idle values.
func (l *List[T]) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.free)
}
