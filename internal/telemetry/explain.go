package telemetry

import (
	"fmt"
	"sort"
	"time"

	"soifft/internal/instrument"
	"soifft/internal/perfmodel"
)

// Explainer thresholds. A measurement is a finding once it exceeds the
// model (or fleet-calibrated) expectation by RatioThreshold; volume
// checks use the tighter VolumeRatioThreshold because byte counts are
// analytic, not noisy.
const (
	// RatioThreshold is the measured-vs-expected ratio above which a
	// stage or link time becomes a finding.
	RatioThreshold = 1.5
	// VolumeRatioThreshold is the measured-vs-analytic wire volume ratio
	// above which the run is off-model.
	VolumeRatioThreshold = 1.25
	// LowOverlapThreshold flags a streamed run hiding less than this
	// fraction of its exchange behind compute.
	LowOverlapThreshold = 1.0 / 3
	// minStageNs suppresses stage findings below this absolute wall time
	// (scheduler noise dominates sub-100µs stages).
	minStageNs = int64(100 * time.Microsecond)
)

// Finding kinds, most severe first in the usual ranking.
const (
	KindStaleRank      = "stale-rank"
	KindSlowLink       = "slow-link"
	KindSlowStage      = "slow-stage"
	KindOffModelVolume = "off-model-volume"
	KindLowOverlap     = "low-overlap"
	KindRecovery       = "recovery-traffic"
)

// Finding is one ranked explainer verdict: a measurement that deviates
// from what internal/perfmodel (byte volumes) or the fleet median
// (times, which need no calibration constants) predicts for the run's
// actual (N, R, β, B).
type Finding struct {
	Kind string `json:"kind"`
	Rank int    `json:"rank"`
	// Peer is the destination rank for link findings (-1 otherwise).
	Peer  int    `json:"peer"`
	Stage string `json:"stage,omitempty"`
	// Measured and Expected are in the finding's native unit
	// (nanoseconds for times, bytes for volumes, a fraction for
	// overlap); Ratio is measured/expected.
	Measured float64 `json:"measured"`
	Expected float64 `json:"expected"`
	Ratio    float64 `json:"ratio"`
	// Severity orders findings across kinds (higher = report first),
	// after the categorical stale-rank findings, which rank above every
	// ratio-derived finding whatever its ratio.
	Severity float64 `json:"severity"`
	Detail   string  `json:"detail"`
}

func (f Finding) String() string {
	return fmt.Sprintf("[%s] %s", f.Kind, f.Detail)
}

// Explain runs the model comparison over a snapshot, stores the ranked
// findings on it, and returns them: stale or silent ranks first, then by
// severity. Thresholds: times are findings at
// RatioThreshold over the fleet median (the calibration-free analogue of
// perfmodel's measured constants), wire volumes at VolumeRatioThreshold
// over the analytic 16·(1+β)·N terms.
func Explain(s *ClusterSnapshot) []Finding {
	if s == nil {
		return nil
	}
	var out []Finding
	out = append(out, staleFindings(s)...)
	out = append(out, linkFindings(s)...)
	out = append(out, stageFindings(s)...)
	out = append(out, volumeFindings(s)...)
	out = append(out, overlapFindings(s)...)
	out = append(out, recoveryFindings(s)...)
	sort.SliceStable(out, func(i, j int) bool {
		if si, sj := out[i].Kind == KindStaleRank, out[j].Kind == KindStaleRank; si != sj {
			return si
		}
		return out[i].Severity > out[j].Severity
	})
	s.Findings = out
	return out
}

func staleFindings(s *ClusterSnapshot) []Finding {
	var out []Finding
	for _, r := range s.Ranks {
		switch {
		case r.Stale:
			out = append(out, Finding{
				Kind: KindStaleRank, Rank: r.Rank, Peer: -1, Severity: 1000,
				Detail: fmt.Sprintf("rank %d stale: %s (counters frozen at seq %d)",
					r.Rank, r.StaleReason, r.Seq),
			})
		case !r.Reported:
			out = append(out, Finding{
				Kind: KindStaleRank, Rank: r.Rank, Peer: -1, Severity: 900,
				Detail: fmt.Sprintf("rank %d never reported a stat frame", r.Rank),
			})
		}
	}
	return out
}

// linkFindings prices every directed link against the fleet-median link
// bandwidth: the expected service time of the bytes it actually moved.
// A throttled or congested link shows up as ratio = medianBW/linkBW.
func linkFindings(s *ClusterSnapshot) []Finding {
	medianBW := s.Fleet.LinkBandwidthP50Bps
	if medianBW <= 0 {
		return nil
	}
	var out []Finding
	for _, r := range s.Ranks {
		for _, l := range r.Links {
			if l.BytesSent <= 0 || l.FlushNs <= 0 {
				continue
			}
			expectedNs := float64(l.BytesSent) * 1e9 / medianBW
			if expectedNs <= 0 {
				continue
			}
			ratio := float64(l.FlushNs) / expectedNs
			if ratio < RatioThreshold {
				continue
			}
			bw := l.BandwidthBps()
			detail := fmt.Sprintf("link %d→%d moved %d B in %v (%.1f MB/s) — %.1fx the fleet-median link time (median %.1f MB/s)",
				r.Rank, l.Peer, l.BytesSent, time.Duration(l.FlushNs).Round(time.Microsecond),
				bw/1e6, ratio, medianBW/1e6)
			if l.CreditStallNs > 0 {
				detail += fmt.Sprintf("; credit-stall %v on this link",
					time.Duration(l.CreditStallNs).Round(time.Microsecond))
			}
			out = append(out, Finding{
				Kind: KindSlowLink, Rank: r.Rank, Peer: l.Peer,
				Measured: float64(l.FlushNs), Expected: expectedNs, Ratio: ratio,
				Severity: 10 * ratio, Detail: detail,
			})
		}
	}
	return out
}

// stageFindings compares every rank's stage wall time against the fleet
// median of the same stage. For the exchange stage the excess is
// attributed: how much of it is credit-stall, and on which link.
func stageFindings(s *ClusterSnapshot) []Finding {
	var out []Finding
	for _, sp := range s.Fleet.Stages {
		if sp.P50Ns <= 0 {
			continue
		}
		for _, r := range s.Ranks {
			if !r.Reported {
				continue
			}
			ns := r.StageNs[sp.Stage]
			if ns < minStageNs {
				continue
			}
			ratio := float64(ns) / float64(sp.P50Ns)
			if ratio < RatioThreshold {
				continue
			}
			detail := fmt.Sprintf("rank %d %s %v is %.1fx the fleet median %v",
				r.Rank, sp.Stage, time.Duration(ns).Round(time.Microsecond), ratio,
				time.Duration(sp.P50Ns).Round(time.Microsecond))
			if sp.Stage == instrument.StageExchange.String() {
				if excess := ns - sp.P50Ns; excess > 0 && r.Comm.CreditStallNs > 0 {
					share := float64(r.Comm.CreditStallNs) / float64(excess)
					if share > 1 {
						share = 1
					}
					worst, worstNs := -1, int64(0)
					for _, l := range r.Links {
						if l.CreditStallNs > worstNs {
							worstNs, worst = l.CreditStallNs, l.Peer
						}
					}
					if worst >= 0 {
						detail += fmt.Sprintf(" — %.0f%% of the excess is credit-stall, worst on link %d→%d (%v)",
							share*100, r.Rank, worst, time.Duration(worstNs).Round(time.Microsecond))
					} else {
						detail += fmt.Sprintf(" — %.0f%% of the excess is credit-stall", share*100)
					}
				}
			}
			out = append(out, Finding{
				Kind: KindSlowStage, Rank: r.Rank, Peer: -1, Stage: sp.Stage,
				Measured: float64(ns), Expected: float64(sp.P50Ns), Ratio: ratio,
				Severity: 5 * ratio, Detail: detail,
			})
		}
	}
	return out
}

// volumeFindings checks measured exchange bytes against the analytic
// per-rank volume perfmodel derives from (N, R, β) — including the coded
// exchange's parity overhead when parity is armed. Byte counts are
// deterministic, so the tighter VolumeRatioThreshold applies.
func volumeFindings(s *ClusterSnapshot) []Finding {
	sh := s.Shape
	if sh.N <= 0 || s.World <= 1 {
		return nil
	}
	var out []Finding
	for _, r := range s.Ranks {
		if !r.Reported || r.Transforms <= 0 {
			continue
		}
		expected := perfmodel.ExpectedExchangeBytes(sh.N, s.World, sh.Beta)
		if sh.Parity > 0 {
			expected += perfmodel.ExpectedParityBytes(sh.N, s.World, sh.Parity, sh.Beta)
		}
		expected *= r.Transforms
		if expected <= 0 {
			continue
		}
		measured := r.Comm.AlltoallBytes + r.Comm.ParityBytes
		ratio := float64(measured) / float64(expected)
		if ratio < VolumeRatioThreshold {
			continue
		}
		out = append(out, Finding{
			Kind: KindOffModelVolume, Rank: r.Rank, Peer: -1,
			Measured: float64(measured), Expected: float64(expected), Ratio: ratio,
			Severity: 3 * ratio,
			Detail: fmt.Sprintf("rank %d shipped %d exchange bytes over %d transform(s); the model for (N=%d, R=%d, beta=%.2f%s) expects %d — %.2fx",
				r.Rank, measured, r.Transforms, sh.N, s.World, sh.Beta, parityNote(sh.Parity), expected, ratio),
		})
	}
	return out
}

func parityNote(m int) string {
	if m > 0 {
		return fmt.Sprintf(", m=%d", m)
	}
	return ""
}

// overlapFindings flags streamed runs that hide little of the exchange —
// the cue to try another async window.
func overlapFindings(s *ClusterSnapshot) []Finding {
	if s.Shape.Window <= 0 {
		return nil
	}
	var out []Finding
	for _, r := range s.Ranks {
		if !r.Reported {
			continue
		}
		total := r.Comm.HiddenNs + r.StageNs[instrument.StageExchange.String()]
		if total < minStageNs {
			continue
		}
		if r.OverlapRatio >= LowOverlapThreshold {
			continue
		}
		out = append(out, Finding{
			Kind: KindLowOverlap, Rank: r.Rank, Peer: -1,
			Measured: r.OverlapRatio, Expected: LowOverlapThreshold,
			Ratio:    safeDiv(LowOverlapThreshold, r.OverlapRatio),
			Severity: 2,
			Detail: fmt.Sprintf("rank %d hides only %.0f%% of its exchange behind compute at window %d (credit-stall %v) — consider a larger window",
				r.Rank, r.OverlapRatio*100, s.Shape.Window,
				time.Duration(r.Comm.CreditStallNs).Round(time.Microsecond)),
		})
	}
	return out
}

// recoveryFindings surfaces coded-exchange repair activity — Jeong et
// al.'s point that recovery traffic must be accounted separately from
// the data exchange.
func recoveryFindings(s *ClusterSnapshot) []Finding {
	var out []Finding
	for _, r := range s.Ranks {
		if !r.Reported || r.Comm.Reconstructions == 0 {
			continue
		}
		out = append(out, Finding{
			Kind: KindRecovery, Rank: r.Rank, Peer: -1,
			Measured: float64(r.Comm.RecoveryBytes),
			Severity: 1,
			Detail: fmt.Sprintf("rank %d rebuilt %d codeword(s) from parity: %d parity B on the wire, %d recovery B of repair traffic, %d degraded transform(s)",
				r.Rank, r.Comm.Reconstructions, r.Comm.ParityBytes, r.Comm.RecoveryBytes, r.Comm.Degraded),
		})
	}
	return out
}

func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
