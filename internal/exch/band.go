package exch

// The tag layout: the band a tag falls in says what the message is. The
// transport routes by band (stream chunks and telemetry frames have
// mailboxes of their own) and counts every send in its band, so a run
// reads its halo, exchange, parity and recovery bytes off the links.
//
//	≥ HaloTagBase (200)  BandHalo        neighbour prefix chunks, HaloTag(d, i)
//	−1 … −999            BandCollective  gather, barrier and trace-ID frames
//	−1001 … −1099        BandParity      coded parity share i, TagCodedParity−i
//	−1100 … −1499        BandCoded       coded control: masks, verdict, pool, refill, degraded gather
//	TagStat (−1500)      BandTelemetry   telemetry stat frames
//	≤ TagBase (−2000)    BandStream      all-to-all chunk idx, Tag(idx)
//	any other            BandOther       e.g. the comparators' point-to-point tags, 0 … 199

// TagBase is the top of the stream band: chunk idx travels with tag
// TagBase-idx.
const TagBase = -2000

// Tag returns the wire tag of chunk index idx.
func Tag(idx int) int { return TagBase - idx }

// HaloTagBase is the bottom of the positive halo band.
const HaloTagBase = 200

// HaloTag returns the wire tag of halo chunk i to neighbour depth d
// (d ≥ 1, i < MaxHaloChunks).
func HaloTag(d, i int) int { return HaloTagBase + d*MaxHaloChunks + i }

// The coded exchange's tags; a share i or rank d below the protocol's 52
// keeps each family inside its band.
const (
	TagCodedParity  = -1001 // parity share i of a source's codeword: TagCodedParity - i
	TagCodedView    = -1100 // post-exchange liveness/receipt masks
	TagCodedAgree   = -1101 // dead-set agreement masks
	TagCodedOutcome = -1102 // coordinator's decode verdict to each survivor
	TagCodedPool    = -1200 // share pooling for dead rank d: TagCodedPool - d
	TagCodedRefill  = -1300 // reconstructed chunk refill for dead rank d: TagCodedRefill - d
	TagCodedGather  = -1400 // degraded gather; dead rank d's block: TagCodedGather - 1 - d
)

// TagStat is the tag telemetry stat frames travel on.
const TagStat = -1500

// Band is a class of traffic: a range of tags.
type Band int

// The bands, indexing Bands.
const (
	BandOther Band = iota
	BandHalo
	BandStream
	BandParity
	BandCoded
	BandCollective
	BandTelemetry
	NumBands
)

// BandOf returns the band of tag.
func BandOf(tag int) Band {
	switch {
	case tag >= HaloTagBase:
		return BandHalo
	case tag < 0 && tag > -1000:
		return BandCollective
	case tag <= TagBase:
		return BandStream
	case tag == TagStat:
		return BandTelemetry
	case tag > TagStat && tag <= TagCodedView:
		return BandCoded
	case tag > TagCodedView && tag <= TagCodedParity:
		return BandParity
	}
	return BandOther
}

// Traffic is what the successful sends of one band posted: messages and
// their payload bytes.
type Traffic struct{ Messages, Bytes int64 }

// Bands is a value snapshot of traffic, indexed by Band.
type Bands [NumBands]Traffic

// Since returns the traffic b adds to the earlier snapshot.
func (b Bands) Since(earlier Bands) Bands {
	for i := range b {
		b[i].Messages -= earlier[i].Messages
		b[i].Bytes -= earlier[i].Bytes
	}
	return b
}
