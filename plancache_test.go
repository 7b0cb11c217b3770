package soifft_test

import (
	"sync"
	"testing"

	"soifft"
)

// TestKeyOfMatchesPlanKey checks that the key computed from options
// (without building) agrees with the key of the built plan, across the
// defaulting rules: default segments, accuracy presets, tap shrinking.
func TestKeyOfMatchesPlanKey(t *testing.T) {
	cases := []struct {
		name string
		n    int
		opts []soifft.Option
	}{
		{"defaults", 4096, nil},
		{"explicit", 2048, []soifft.Option{soifft.WithSegments(8), soifft.WithTaps(48)}},
		{"accuracy", 4096, []soifft.Option{soifft.WithAccuracy(soifft.Accuracy230dB)}},
		{"shrunk-taps", 256, []soifft.Option{soifft.WithSegments(8), soifft.WithTaps(72)}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p, err := soifft.NewPlan(tc.n, tc.opts...)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := p.Key(), soifft.KeyOf(tc.n, tc.opts...); got != want {
				t.Errorf("Plan.Key() = %v, KeyOf = %v", got, want)
			}
		})
	}
}

// TestPlanCacheAddReuse inserts a built plan with Add → a plan cache →
// Transform: a request shaped like the plan's NewPlan call must reuse it
// (hit counter increments) and its results must match a plan built
// separately bit-for-bit.
func TestPlanCacheAddReuse(t *testing.T) {
	const n = 2048
	opts := []soifft.Option{soifft.WithSegments(8), soifft.WithTaps(48)}
	cold, err := soifft.NewPlan(n, opts...)
	if err != nil {
		t.Fatal(err)
	}
	added, err := soifft.NewPlan(n, opts...)
	if err != nil {
		t.Fatal(err)
	}

	cache := soifft.NewPlanCache(4)
	if key := cache.Add(added); key != soifft.KeyOf(n, opts...) {
		t.Fatalf("Add keyed the plan %v, KeyOf %v", key, soifft.KeyOf(n, opts...))
	}
	if st := cache.Stats(); st.Size != 1 || st.Hits != 0 || st.Misses != 0 {
		t.Fatalf("after Add: stats %+v", st)
	}

	// A request shaped like the original NewPlan call must hit the
	// added entry — no rebuild.
	got, hit, err := cache.Get(n, opts...)
	if err != nil {
		t.Fatal(err)
	}
	if !hit {
		t.Fatalf("expected a hit for key %v", soifft.KeyOf(n, opts...))
	}
	if got != added {
		t.Fatal("cache returned a different plan than the added one")
	}
	st := cache.Stats()
	if st.Hits != 1 || st.Misses != 0 {
		t.Fatalf("after one lookup: hits=%d misses=%d", st.Hits, st.Misses)
	}
	if len(st.PerPlan) != 1 || st.PerPlan[0].Hits != 1 {
		t.Fatalf("per-plan stats %+v", st.PerPlan)
	}

	// Bit-for-bit: the cached plan and the separately built one compute
	// identical spectra.
	src := make([]complex128, n)
	for i := range src {
		src[i] = complex(float64(i%17)-8, float64(i%5)-2)
	}
	want := make([]complex128, n)
	if err := cold.Transform(want, src); err != nil {
		t.Fatal(err)
	}
	have := make([]complex128, n)
	if err := got.Transform(have, src); err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if have[i] != want[i] {
			t.Fatalf("spectrum differs at %d: cached %v cold %v", i, have[i], want[i])
		}
	}

	// Further lookups keep incrementing the hit counter.
	if _, hit, _ := cache.Get(n, opts...); !hit {
		t.Fatal("second lookup missed")
	}
	if st := cache.Stats(); st.Hits != 2 {
		t.Fatalf("hits = %d, want 2", st.Hits)
	}
}

// TestPlanCacheEvictionAndCoalescing exercises LRU eviction and the
// single-build guarantee for concurrent misses.
func TestPlanCacheEvictionAndCoalescing(t *testing.T) {
	cache := soifft.NewPlanCache(2)
	for _, n := range []int{512, 1024, 2048} {
		if _, _, err := cache.Get(n, soifft.WithSegments(4), soifft.WithTaps(24)); err != nil {
			t.Fatal(err)
		}
	}
	st := cache.Stats()
	if st.Size != 2 || st.Evictions != 1 {
		t.Fatalf("after 3 inserts into cap-2 cache: %+v", st)
	}
	// The evicted (oldest) entry misses again.
	if _, hit, err := cache.Get(512, soifft.WithSegments(4), soifft.WithTaps(24)); err != nil || hit {
		t.Fatalf("evicted entry: hit=%v err=%v", hit, err)
	}

	// Concurrent misses for one key coalesce into a single build.
	c2 := soifft.NewPlanCache(4)
	const goroutines = 8
	plans := make([]*soifft.Plan, goroutines)
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p, _, err := c2.Get(1024, soifft.WithSegments(8), soifft.WithTaps(32))
			if err != nil {
				t.Error(err)
				return
			}
			plans[i] = p
		}(i)
	}
	wg.Wait()
	for i := 1; i < goroutines; i++ {
		if plans[i] != plans[0] {
			t.Fatal("concurrent gets returned distinct plans")
		}
	}
	if st := c2.Stats(); st.Misses != 1 {
		t.Fatalf("concurrent gets built %d times", st.Misses)
	}
}
