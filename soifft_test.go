package soifft

import (
	"math"
	"testing"

	"soifft/internal/fft"
	"soifft/internal/mpi"
	"soifft/internal/signal"
)

func TestPublicPlanTransform(t *testing.T) {
	const n = 1024
	pl, err := NewPlan(n)
	if err != nil {
		t.Fatal(err)
	}
	src := signal.Random(n, 1)
	want := make([]complex128, n)
	fft.Direct(want, src)
	got := make([]complex128, n)
	if err := pl.Transform(got, src); err != nil {
		t.Fatal(err)
	}
	if e := signal.RelErrL2(got, want); e > 1e-12 {
		t.Errorf("relative error %.3e", e)
	}
	if pl.N() != n || pl.Segments() != 8 || pl.Oversampling() != 0.25 {
		t.Errorf("accessors: N=%d P=%d β=%g", pl.N(), pl.Segments(), pl.Oversampling())
	}
	if pl.PredictedDigits() < 12 {
		t.Errorf("predicted digits %.1f", pl.PredictedDigits())
	}
}

func TestPublicOptions(t *testing.T) {
	pl, err := NewPlan(2048,
		WithSegments(16), WithOversampling(3, 2), WithTaps(24), WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	if pl.Segments() != 16 || pl.Taps() != 24 || pl.Oversampling() != 0.5 {
		t.Errorf("options not applied: P=%d B=%d β=%g", pl.Segments(), pl.Taps(), pl.Oversampling())
	}
}

func TestAccuracyLadder(t *testing.T) {
	const n = 4096
	src := signal.Random(n, 2)
	ref, err := FFT(src)
	if err != nil {
		t.Fatal(err)
	}
	prevSNR := math.Inf(1)
	for _, acc := range []Accuracy{AccuracyFull, Accuracy250dB, Accuracy200dB} {
		pl, err := NewPlan(n, WithAccuracy(acc))
		if err != nil {
			t.Fatalf("%v: %v", acc, err)
		}
		got := make([]complex128, n)
		if err := pl.Transform(got, src); err != nil {
			t.Fatal(err)
		}
		snr := signal.SNRdB(got, ref)
		if snr > prevSNR+10 {
			t.Errorf("%v: SNR %.0f dB out of order (prev %.0f)", acc, snr, prevSNR)
		}
		if snr < 150 {
			t.Errorf("%v: SNR %.0f dB unusably low", acc, snr)
		}
		prevSNR = snr
	}
	// Full accuracy should be within ~2 digits of the conventional FFT.
	plFull, _ := NewPlan(n, WithAccuracy(AccuracyFull))
	got := make([]complex128, n)
	if err := plFull.Transform(got, src); err != nil {
		t.Fatal(err)
	}
	if snr := signal.SNRdB(got, ref); snr < 250 {
		t.Errorf("full accuracy SNR %.0f dB, want ≥ 250 (paper: ~290)", snr)
	}
}

func TestFFTIFFTRoundTrip(t *testing.T) {
	for _, n := range []int{1, 17, 100, 1000, 1009} {
		src := signal.Random(n, int64(n))
		f, err := FFT(src)
		if err != nil {
			t.Fatal(err)
		}
		back, err := IFFT(f)
		if err != nil {
			t.Fatal(err)
		}
		if e := signal.MaxAbsErr(back, src); e > 1e-10 {
			t.Errorf("n=%d: round trip error %.3e", n, e)
		}
	}
}

func TestTransformDistributedPublic(t *testing.T) {
	const n = 2048
	pl, err := NewPlan(n, WithSegments(8), WithTaps(48))
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewWorld(4)
	if err != nil {
		t.Fatal(err)
	}
	src := signal.Random(n, 3)
	want := make([]complex128, n)
	fft.Direct(want, src)
	got := make([]complex128, n)
	if err := pl.TransformDistributed(w, got, src); err != nil {
		t.Fatal(err)
	}
	if e := signal.RelErrL2(got, want); e > 1e-10 {
		t.Errorf("relative error %.3e", e)
	}
	st := w.Stats()
	if st.Alltoalls != 1 {
		t.Errorf("all-to-alls = %d, want 1", st.Alltoalls)
	}
	if st.Bytes == 0 || st.Messages == 0 {
		t.Error("expected nonzero traffic")
	}
}

func TestValidatePublic(t *testing.T) {
	if err := Validate(1024); err != nil {
		t.Errorf("default config invalid: %v", err)
	}
	if err := Validate(1000, WithSegments(7)); err == nil {
		t.Error("expected error: 7 does not divide 1000")
	}
	if err := Validate(64, WithTaps(100), WithSegments(2)); err == nil {
		t.Error("expected taps error")
	}
}

func TestNewPlanErrors(t *testing.T) {
	if _, err := NewPlan(0); err == nil {
		t.Error("expected error for n=0")
	}
	if _, err := NewPlan(1024, WithSegments(7)); err == nil {
		t.Error("expected divisibility error")
	}
}

func TestDistributedArgErrors(t *testing.T) {
	pl, err := NewPlan(1024, WithTaps(16))
	if err != nil {
		t.Fatal(err)
	}
	w, _ := NewWorld(4)
	if err := pl.TransformDistributed(w, make([]complex128, 4), make([]complex128, 1024)); err == nil {
		t.Error("expected length error")
	}
	w3, _ := NewWorld(3)
	buf := make([]complex128, 1024)
	if err := pl.TransformDistributed(w3, buf, buf); err == nil {
		t.Error("expected rank-divisibility error")
	}
}

func TestAccuracyString(t *testing.T) {
	if AccuracyFull.String() == "" || Accuracy(99).String() == "" {
		t.Error("Accuracy.String must never be empty")
	}
}

func TestPublicInverseRoundTrip(t *testing.T) {
	const n = 2048
	pl, err := NewPlan(n)
	if err != nil {
		t.Fatal(err)
	}
	src := signal.Random(n, 31)
	freq := make([]complex128, n)
	back := make([]complex128, n)
	if err := pl.Transform(freq, src); err != nil {
		t.Fatal(err)
	}
	if err := pl.Inverse(back, freq); err != nil {
		t.Fatal(err)
	}
	if e := signal.RelErrL2(back, src); e > 1e-12 {
		t.Errorf("round trip error %.3e", e)
	}
}

func TestPublicInverseDistributed(t *testing.T) {
	const n = 2048
	pl, err := NewPlan(n, WithTaps(48))
	if err != nil {
		t.Fatal(err)
	}
	src := signal.Random(n, 32)
	freq, err := FFT(src)
	if err != nil {
		t.Fatal(err)
	}
	w, _ := NewWorld(4)
	back := make([]complex128, n)
	if err := pl.InverseDistributed(w, back, freq); err != nil {
		t.Fatal(err)
	}
	if e := signal.RelErrL2(back, src); e > 1e-10 {
		t.Errorf("distributed inverse error %.3e", e)
	}
	if st := w.Stats(); st.Alltoalls != 1 {
		t.Errorf("inverse used %d all-to-alls, want 1", st.Alltoalls)
	}
}

func TestPublicSegment(t *testing.T) {
	const n = 4096
	pl, err := NewPlan(n, WithSegments(8), WithTaps(48))
	if err != nil {
		t.Fatal(err)
	}
	src := signal.Random(n, 44)
	full := make([]complex128, n)
	if err := pl.Transform(full, src); err != nil {
		t.Fatal(err)
	}
	m := pl.SegmentLen()
	if m != n/8 {
		t.Fatalf("SegmentLen = %d", m)
	}
	seg := make([]complex128, m)
	if err := pl.TransformSegment(seg, src, 5); err != nil {
		t.Fatal(err)
	}
	if e := signal.RelErrL2(seg, full[5*m:6*m]); e > 1e-11 {
		t.Errorf("segment rel err %.3e", e)
	}
}

func TestPublicConvolve(t *testing.T) {
	const n = 2048
	pl, err := NewPlan(n, WithTaps(48))
	if err != nil {
		t.Fatal(err)
	}
	src := signal.Random(n, 61)
	h := signal.Random(n, 62)
	spec, err := FilterSpectrum(h)
	if err != nil {
		t.Fatal(err)
	}
	w, _ := NewWorld(4)
	got := make([]complex128, n)
	if err := pl.Convolve(w, got, src, spec); err != nil {
		t.Fatal(err)
	}
	// Reference: serial FFT convolution.
	f, _ := FFT(src)
	for i := range f {
		f[i] *= spec[i]
	}
	want, _ := IFFT(f)
	if e := signal.RelErrL2(got, want); e > 1e-9 {
		t.Errorf("convolve rel err %.3e", e)
	}
	if st := w.Stats(); st.Alltoalls != 2 {
		t.Errorf("convolve used %d all-to-alls, want 2", st.Alltoalls)
	}
	if err := pl.Convolve(w, got, src, spec[:10]); err == nil {
		t.Error("expected filter length error")
	}
}

func TestTransformBatch(t *testing.T) {
	const n, count = 1024, 3
	pl, err := NewPlan(n, WithTaps(32))
	if err != nil {
		t.Fatal(err)
	}
	src := signal.Random(n*count, 71)
	want := make([]complex128, n*count)
	for i := 0; i < count; i++ {
		if err := pl.Transform(want[i*n:(i+1)*n], src[i*n:(i+1)*n]); err != nil {
			t.Fatal(err)
		}
	}
	got := make([]complex128, n*count)
	if err := pl.TransformBatch(got, src, count); err != nil {
		t.Fatal(err)
	}
	if e := signal.MaxAbsErr(got, want); e != 0 {
		t.Errorf("batch differs by %.3e", e)
	}
	if err := pl.TransformBatch(got[:10], src, count); err == nil {
		t.Error("expected short-buffer error")
	}
}

func TestPublicSegmentDistributed(t *testing.T) {
	const n = 2048
	pl, err := NewPlan(n, WithTaps(32))
	if err != nil {
		t.Fatal(err)
	}
	src := signal.Random(n, 81)
	full := make([]complex128, n)
	if err := pl.Transform(full, src); err != nil {
		t.Fatal(err)
	}
	w, _ := NewWorld(4)
	seg, err := pl.TransformSegmentDistributed(w, src, 6)
	if err != nil {
		t.Fatal(err)
	}
	m := pl.SegmentLen()
	if e := signal.MaxAbsErr(seg, full[6*m:7*m]); e > 1e-10 {
		t.Errorf("distributed segment differs by %.3e", e)
	}
	if a := w.Stats().Alltoalls; a != 0 {
		t.Errorf("segment query used %d all-to-alls, want 0", a)
	}
}

func TestSelfTest(t *testing.T) {
	pl, err := NewPlan(4096)
	if err != nil {
		t.Fatal(err)
	}
	digits, err := pl.SelfTest()
	if err != nil {
		t.Fatal(err)
	}
	if digits < 12 {
		t.Errorf("self test reports %.1f digits for the full-accuracy plan", digits)
	}
	low, err := NewPlan(4096, WithAccuracy(Accuracy200dB))
	if err != nil {
		t.Fatal(err)
	}
	lowDigits, err := low.SelfTest()
	if err != nil {
		t.Fatal(err)
	}
	if lowDigits >= digits {
		t.Errorf("low-accuracy plan (%.1f) should self-test below full (%.1f)", lowDigits, digits)
	}
}

func TestRunSPMD(t *testing.T) {
	w, err := NewWorld(3)
	if err != nil {
		t.Fatal(err)
	}
	if w.Ranks() != 3 {
		t.Fatalf("Ranks = %d", w.Ranks())
	}
	var all []complex128
	err = w.RunSPMD(func(c *mpi.Comm) error {
		g, err := c.Gather(0, []complex128{complex(float64(c.Rank()), 1)})
		if c.Rank() == 0 {
			all = g
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 3; r++ {
		if len(all) != 3 || all[r] != complex(float64(r), 1) {
			t.Fatalf("gathered %v, want rank r's value in slot r", all)
		}
	}
}
