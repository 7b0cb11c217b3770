package fft

import (
	"testing"
)

func TestBatchMatchesSingle(t *testing.T) {
	const n, count = 64, 9
	p, _ := NewPlan(n)
	src := randomVec(n*count, 5)
	want := make([]complex128, n*count)
	for i := 0; i < count; i++ {
		p.Forward(want[i*n:(i+1)*n], src[i*n:(i+1)*n])
	}
	got := make([]complex128, n*count)
	p.Batch(got, src, count)
	if e := maxAbsErr(got, want); e > 0 {
		t.Errorf("Batch differs from loop of Forward by %.3e", e)
	}
}

func TestInverseBatchRoundTrip(t *testing.T) {
	const n, count = 48, 5
	p, _ := NewPlan(n)
	src := randomVec(n*count, 7)
	freq := make([]complex128, n*count)
	back := make([]complex128, n*count)
	p.Batch(freq, src, count)
	p.InverseBatch(back, freq, count)
	if e := maxAbsErr(back, src); e > 1e-11 {
		t.Errorf("batch round trip error %.3e", e)
	}
}

func TestBatchZeroCount(t *testing.T) {
	p, _ := NewPlan(8)
	p.Batch(nil, nil, 0) // must not panic
}

func TestBatchShortBufferPanics(t *testing.T) {
	p, _ := NewPlan(8)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for short batch buffer")
		}
	}()
	p.Batch(make([]complex128, 8), make([]complex128, 8), 2)
}

func TestCachedPlanReuse(t *testing.T) {
	a, err := CachedPlan(96)
	if err != nil {
		t.Fatal(err)
	}
	b, err := CachedPlan(96)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("CachedPlan returned distinct plans for the same length")
	}
	if _, err := CachedPlan(-3); err == nil {
		t.Error("CachedPlan(-3): expected error")
	}
}

func TestConvenienceForwardInverse(t *testing.T) {
	src := randomVec(100, 9)
	f, err := Forward(src)
	if err != nil {
		t.Fatal(err)
	}
	back, err := Inverse(f)
	if err != nil {
		t.Fatal(err)
	}
	if e := maxAbsErr(back, src); e > 1e-11 {
		t.Errorf("convenience round trip error %.3e", e)
	}
}
