package exch

import (
	"errors"
	"testing"
)

// TestOverlap: slices of one array overlap exactly when their element
// ranges intersect; distinct arrays never do.
func TestOverlap(t *testing.T) {
	a := make([]complex128, 10)
	for _, tc := range []struct {
		x, y []complex128
		want bool
	}{
		{a, a, true},
		{a[:5], a[5:], false},
		{a[:6], a[5:], true},
		{a[2:4], a[3:9], true},
		{a[8:], a[:8], false},
		{a[:0], a, false},
		{a, make([]complex128, 10), false},
	} {
		if got := Overlap(tc.x, tc.y); got != tc.want {
			t.Errorf("Overlap(len %d cap %d, len %d cap %d) = %v, want %v",
				len(tc.x), cap(tc.x), len(tc.y), cap(tc.y), got, tc.want)
		}
	}
}

func TestTrackerArithmetic(t *testing.T) {
	trk := NewTracker(2, 3)
	trk.Deliver(Chunk{Src: 0, Index: 0, Data: []complex128{1}})
	trk.Deliver(Chunk{Src: 1, Err: errors.New("dead")})
	trk.Deliver(Chunk{Src: 0, Index: 1, Data: []complex128{2}})
	trk.Deliver(Chunk{Src: 0, Index: 2, Data: []complex128{3}})
	seen := 0
	for {
		_, ok := trk.Next()
		if !ok {
			break
		}
		seen++
	}
	if seen != 4 { // 3 chunks from src 0 + 1 failure from src 1
		t.Fatalf("consumed %d events, want 4", seen)
	}
}

func TestHaloSizes(t *testing.T) {
	cases := []struct {
		total   int
		wantLen int
	}{
		{0, 0},
		{-5, 0},
		{1, 1},                   // tiny halo: one chunk, even below the floor
		{376, 1},                 // the B=48, P=8 test halo: single frame
		{4088, 1},                // a typical production halo: still one frame
		{16384, 1},               // exactly the floor
		{16385, 2},               // just over: two chunks
		{1 << 17, MaxHaloChunks}, // 128 Ki elements: exactly at the cap
		{1 << 20, MaxHaloChunks}, // huge halo capped at the schedule limit
	}
	for _, tc := range cases {
		sizes := HaloSizes(tc.total)
		if len(sizes) != tc.wantLen {
			t.Errorf("HaloSizes(%d) has %d chunks, want %d", tc.total, len(sizes), tc.wantLen)
			continue
		}
		sum := 0
		for i, s := range sizes {
			if s <= 0 {
				t.Errorf("HaloSizes(%d)[%d] = %d, want positive", tc.total, i, s)
			}
			sum += s
		}
		if tc.total > 0 && sum != tc.total {
			t.Errorf("HaloSizes(%d) sums to %d", tc.total, sum)
		}
	}
}

func TestHaloTagBand(t *testing.T) {
	// The halo-stream band must stay positive (ordinary mailboxes) and
	// collision-free across (depth, chunk) pairs.
	seen := map[int]bool{}
	for d := 1; d <= 16; d++ {
		for i := 0; i < MaxHaloChunks; i++ {
			tag := HaloTag(d, i)
			if tag <= HaloTagBase-1 {
				t.Fatalf("HaloTag(%d, %d) = %d below the band", d, i, tag)
			}
			if seen[tag] {
				t.Fatalf("HaloTag(%d, %d) = %d collides", d, i, tag)
			}
			seen[tag] = true
		}
	}
}

// TestBandOf: every tag family lands in its band, at the widest shapes
// its protocol allows (52 ranks plus parity shares, any chunk index).
func TestBandOf(t *testing.T) {
	for _, c := range []struct {
		tag  int
		want Band
	}{
		{HaloTag(1, 0), BandHalo}, {HaloTag(64, MaxHaloChunks-1), BandHalo},
		{0, BandOther}, {HaloTagBase - 1, BandOther}, {-1000, BandOther}, {TagBase + 1, BandOther},
		{-4, BandCollective}, {-7, BandCollective},
		{TagCodedParity, BandParity}, {TagCodedParity - 50, BandParity},
		{TagCodedView, BandCoded}, {TagCodedAgree, BandCoded}, {TagCodedOutcome, BandCoded},
		{TagCodedPool - 51, BandCoded}, {TagCodedRefill - 51, BandCoded}, {TagCodedGather - 1 - 51, BandCoded},
		{TagStat, BandTelemetry},
		{Tag(0), BandStream}, {Tag(1 << 20), BandStream},
	} {
		if got := BandOf(c.tag); got != c.want {
			t.Errorf("BandOf(%d) = %d, want %d", c.tag, got, c.want)
		}
	}
}
