package core

import (
	"testing"

	"soifft/internal/fft"
	"soifft/internal/signal"
)

// TestAccuracyGuard pins the SNR of the transforms against the
// compensated fft.Direct oracle at N = 2¹³ on random input:
//   - fft.Forward ≥ 305 dB checks the oracle itself (a plain-sum oracle
//     caps every measurement near 290 dB);
//   - SOI at B = 72 (β = 1/4) ≥ 300 dB, within ≈ 5 dB of fft.Forward:
//     every plan table is built from exactly reduced arguments, and what
//     remains is the kernels' own arithmetic;
//   - SNR(B = 96) ≥ SNR(B = 72) − 1 dB: more taps shrink the window
//     error, so an SNR that falls as B grows is rounding that grows with
//     B — the tell of an inexactly reduced phase or tap argument.
//
// Run it on both kernel sets: plain and with -tags purego.
func TestAccuracyGuard(t *testing.T) {
	if raceEnabled {
		t.Skip("O(N²) oracle at N = 2¹³ is too slow under -race")
	}
	const n = 1 << 13
	src := signal.Random(n, 8191)
	want := make([]complex128, n)
	fft.Direct(want, src)

	fp, err := fft.CachedPlan(n)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]complex128, n)
	fp.Forward(got, src)
	if snr := signal.SNRdB(got, want); snr < 305 {
		t.Errorf("fft.Forward: SNR %.2f dB against the oracle, want ≥ 305", snr)
	} else {
		t.Logf("fft.Forward: %.2f dB", snr)
	}

	soi := func(b int) float64 {
		pl, err := NewPlan(Params{N: n, P: 16, Mu: 5, Nu: 4, B: b})
		if err != nil {
			t.Fatal(err)
		}
		if err := pl.Transform(got, src); err != nil {
			t.Fatal(err)
		}
		snr := signal.SNRdB(got, want)
		t.Logf("SOI B=%d: %.2f dB", b, snr)
		return snr
	}
	s72, s96 := soi(72), soi(96)
	if s72 < 300 {
		t.Errorf("SOI B=72: SNR %.2f dB, want ≥ 300", s72)
	}
	if s96 < s72-1 {
		t.Errorf("SOI SNR falls with B: %.2f dB at B=96 vs %.2f at B=72", s96, s72)
	}
}
