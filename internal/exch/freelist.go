package exch

import (
	"slices"
	"sync"
	"unsafe"
)

// FreeList is the bounded best-fit free list both links recycle payload
// copies through (a socket per direction, the in-process world per
// process).
// Buffers under minPooledBytes bypass it, so control frames never hold a
// payload-sized buffer; past maxFree idle ones the oldest is dropped, so
// stale sizes age out. The zero value is ready and safe for concurrent use.
type FreeList[T any] struct {
	mu   sync.Mutex
	free [][]T
}

const maxFree, minPooledBytes = 16, 4 << 10

func pooled[T any](n int) bool { return n*int(unsafe.Sizeof(*new(T))) >= minPooledBytes }

// Get returns a buffer of length n, reusing the smallest idle buffer that
// fits (the most recently returned among equals).
func (fl *FreeList[T]) Get(n int) []T {
	fl.mu.Lock()
	best := -1
	for i := len(fl.free) - 1; i >= 0 && pooled[T](n); i-- {
		if c := cap(fl.free[i]); c >= n && (best < 0 || c < cap(fl.free[best])) {
			best = i
		}
	}
	if best < 0 {
		fl.mu.Unlock()
		return make([]T, n)
	}
	b := fl.free[best]
	fl.free = slices.Delete(fl.free, best, best+1)
	fl.mu.Unlock()
	return b[:n]
}

// Put returns a buffer nothing references any more.
func (fl *FreeList[T]) Put(b []T) {
	fl.mu.Lock()
	if pooled[T](cap(b)) {
		fl.free = append(slices.Delete(fl.free, 0, max(len(fl.free)-maxFree+1, 0)), b)
	}
	fl.mu.Unlock()
}
