package gate

import (
	"fmt"
	"testing"
)

// TestRingDistribution checks that vnode hashing spreads many keys
// roughly evenly over replicas (no replica under half or over double
// the fair share across 3000 keys).
func TestRingDistribution(t *testing.T) {
	replicas := []string{"a:1", "b:1", "c:1", "d:1"}
	r := newRing(replicas, 64)
	counts := map[string]int{}
	const keys = 3000
	for i := 0; i < keys; i++ {
		c := r.candidates(fmt.Sprintf("n=%d p=8 mu=5 nu=4 b=72", 1024+i), 1)
		if len(c) != 1 {
			t.Fatalf("candidates returned %d replicas, want 1", len(c))
		}
		counts[c[0]]++
	}
	fair := keys / len(replicas)
	for _, rep := range replicas {
		if counts[rep] < fair/2 || counts[rep] > fair*2 {
			t.Errorf("replica %s owns %d of %d keys; fair share is %d", rep, counts[rep], keys, fair)
		}
	}
}

// TestRingStability checks the consistent-hashing contract: removing
// one replica only remaps that replica's keys, so every other replica
// keeps its warm plans.
func TestRingStability(t *testing.T) {
	all := []string{"a:1", "b:1", "c:1", "d:1"}
	full := newRing(all, 64)
	reduced := newRing(all[:3], 64) // "d:1" removed

	moved := 0
	const keys = 2000
	for i := 0; i < keys; i++ {
		key := fmt.Sprintf("n=%d p=4 mu=5 nu=4 b=32", i)
		before := full.candidates(key, 1)[0]
		after := reduced.candidates(key, 1)[0]
		if before == "d:1" {
			continue // its keys must move somewhere
		}
		if before != after {
			moved++
		}
	}
	if moved != 0 {
		t.Errorf("%d keys not owned by the removed replica changed owner; consistent hashing should move none", moved)
	}
}

// TestRingCandidatesDistinct checks the failover order lists each
// replica at most once and starts with the primary.
func TestRingCandidatesDistinct(t *testing.T) {
	replicas := []string{"a:1", "b:1", "c:1"}
	r := newRing(replicas, 32)
	c := r.candidates("some-plan-key", 3)
	if len(c) != 3 {
		t.Fatalf("got %d candidates, want 3", len(c))
	}
	seen := map[string]bool{}
	for _, rep := range c {
		if seen[rep] {
			t.Errorf("replica %s appears twice in candidate order %v", rep, c)
		}
		seen[rep] = true
	}
	if first := r.candidates("some-plan-key", 1); first[0] != c[0] {
		t.Errorf("primary differs between calls: %s vs %s", first[0], c[0])
	}
}

// TestRingEmpty checks the degenerate cases return nothing rather than
// panicking.
func TestRingEmpty(t *testing.T) {
	r := newRing(nil, 16)
	if c := r.candidates("key", 2); c != nil {
		t.Errorf("empty ring returned candidates %v", c)
	}
	r2 := newRing([]string{"a:1"}, 16)
	if c := r2.candidates("key", 0); c != nil {
		t.Errorf("max=0 returned candidates %v", c)
	}
}
