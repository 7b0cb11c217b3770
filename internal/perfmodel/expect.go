package perfmodel

// Per-run expectations for the telemetry explainer: what the Section 7.4
// model says one concrete distributed transform of N points on R ranks
// should have moved. The time-side constants of Model (Alpha, Tconv,
// Fabric) are fleet-specific and must be calibrated; the byte-side
// expectations below are exact consequences of the factorization and
// need only (N, R, β), so the explainer can compare measured wire
// volumes and per-link shares against them without any calibration.

// ExpectedExchangeBytes is the analytic per-rank all-to-all volume of
// one SOI transform: 16·(1+β)·N·(R−1)/R² bytes leave each rank
// (self-copies excluded, matching the instrument counters).
func ExpectedExchangeBytes(n, r int, beta float64) int64 {
	if r <= 1 {
		return 0
	}
	perRank := float64(n) * (1 + beta) * 16 / float64(r)
	return int64(perRank * float64(r-1) / float64(r))
}

// ExpectedParityBytes is the wire overhead the coded exchange adds for m
// parity shares: m/(R−1) of the data volume (each codeword of R−1 data
// chunks gains m shares of the same chunk size).
func ExpectedParityBytes(n, r, m int, beta float64) int64 {
	if r <= 1 || m <= 0 {
		return 0
	}
	return ExpectedExchangeBytes(n, r, beta) * int64(m) / int64(r-1)
}
