package core

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"time"

	"soifft/internal/erasure"
	"soifft/internal/instrument"
)

// Coded-exchange tags live in a far negative band of their own, away
// from the collective tags of both transports (mpi: -1..-6; mpinet:
// -4..-7) and the positive halo band.
const (
	tagCodedData    = -1000 // the all-to-all data chunk C_{src→dst}
	tagCodedParity  = -1001 // parity share i of a source's codeword: tagCodedParity - i
	tagCodedView    = -1100 // post-exchange liveness/receipt masks
	tagCodedAgree   = -1101 // dead-set agreement masks
	tagCodedOutcome = -1102 // coordinator's decode verdict to each survivor
	tagCodedPool    = -1200 // share pooling for dead rank d: tagCodedPool - d
	tagCodedRefill  = -1300 // reconstructed chunk refill for dead rank d: tagCodedRefill - d
	tagCodedGather  = -1400 // degraded gather; dead rank d's block: tagCodedGather - 1 - d
)

// CodedExchangeFailpoint, when non-nil, is invoked on every rank between
// the coded send fan-out and the view round. A non-nil return makes the
// rank exit with that error — the chaos suite's seam for killing a rank
// at the exact protocol point the parity is designed to survive. Test
// hook only; set before the transform and clear after.
var CodedExchangeFailpoint func(rank int) error

// DegradedError reports a transform that COMPLETED with the correct,
// bit-exact spectrum after reconstructing one or more dead ranks'
// contributions from parity. It is informational: localOut is fully
// valid when RunDistributed returns it. It is deliberately not a
// Fault: callers that treat every Fault as a failed run must not drop a
// complete spectrum.
type DegradedError struct {
	// ReconstructedRanks lists the dead ranks whose codewords were
	// rebuilt, ascending. Every survivor reports the same set.
	ReconstructedRanks []int
	// Coordinator is the survivor (min rank alive) that pooled shares,
	// decoded, and took over the dead ranks' output blocks.
	Coordinator int
	// ParityBytes counts erasure parity payload this rank sent.
	ParityBytes int64
	// RecoveryBytes counts view/agreement/pooling/refill payload this
	// rank sent.
	RecoveryBytes int64
	// TakenOver maps each dead rank to its recomputed output block.
	// Populated only on the coordinator; GatherDegraded routes it.
	TakenOver map[int][]complex128
}

func (e *DegradedError) Error() string {
	return fmt.Sprintf("core: transform completed degraded: rank(s) %v reconstructed from parity by rank %d",
		e.ReconstructedRanks, e.Coordinator)
}

// UnrecoverableLossError reports a coded exchange whose losses exceeded
// the parity budget (or a loss pattern the protocol cannot repair, such
// as a link failure between two live ranks). It is a Fault: the
// transform failed, localOut is invalid.
type UnrecoverableLossError struct {
	DeadRanks []int // dead peers, ascending (empty for live-link losses)
	Parity    int   // the parity budget m that was exceeded
	Cause     error // optional detail (e.g. erasure.ErrTooFewShares)
}

func (e *UnrecoverableLossError) Error() string {
	msg := fmt.Sprintf("core: coded exchange lost rank(s) %v, beyond the m=%d parity budget", e.DeadRanks, e.Parity)
	if e.Cause != nil {
		msg += ": " + e.Cause.Error()
	}
	return msg
}

func (e *UnrecoverableLossError) Unwrap() error { return e.Cause }

// CommFault marks the loss as a typed communication fault.
func (e *UnrecoverableLossError) CommFault() {}

// ValidateCoded checks a coded-mode configuration: m parity shares on r
// ranks requires 0 ≤ m ≤ r−1 (each parity share lives on a distinct
// peer) and r+m ≤ 52 (the protocol's receipt masks travel as exact
// integers in a float64 mantissa).
func ValidateCoded(r, m int) error {
	switch {
	case r <= 0:
		return fmt.Errorf("core: rank count must be positive, got %d: %w", r, ErrPlanMismatch)
	case m < 0 || m > r-1:
		return fmt.Errorf("core: coded parity m=%d must be in [0, ranks-1=%d]: %w", m, r-1, ErrPlanMismatch)
	case r+m > 52:
		return fmt.Errorf("core: ranks+parity %d exceeds the 52-share protocol limit: %w", r+m, ErrPlanMismatch)
	}
	return nil
}

// runCoded is the erasure-protected distributed transform behind
// RunDistributed(..., WithCoding(m)): each rank encodes its R outgoing
// chunks (its own included) into m parity shares over GF(2^8) and fans
// data plus parity across its peers, so the transform survives rank
// deaths mid-exchange. Phases 1–2, the coded exchange (blocking fan-out,
// or streamed tile fan-out when an async window is configured),
// detection/recovery, then phase 4 with output takeover on the
// coordinator.
//
// Outcomes:
//   - no loss: identical to the uncoded run, bit for bit, at a wire cost
//     of (R−1+m)/(R−1) times the plain exchange;
//   - ranks die but every lost codeword retains ≥ R of its R+m shares
//     (guaranteed for any single death with m ≥ 1 when the victim's
//     sends flushed): every survivor finishes with the bit-exact
//     spectrum and returns *DegradedError naming the reconstructed
//     ranks; the coordinator additionally recomputes the dead ranks'
//     output blocks (DegradedError.TakenOver, routed by GatherDegraded);
//   - loss beyond the budget: every survivor returns a typed
//     *UnrecoverableLossError naming the dead peers, within the
//     transport's deadline bounds.
//
// The protocol detects deaths with a two-round view/agreement exchange
// after the data fan-out; it therefore handles ranks that crash up to
// that point. Deaths during the recovery itself surface as typed
// transport errors (clean failure, never a wrong answer).
//
// Only a clean run returns its workspace to the plan; a degraded or
// failed one drops it, and TakenOver blocks are caller-owned makes.
func (pl *Plan) runCoded(ctx context.Context, c Comm, cfg distOptions, localOut, localIn []complex128) (DistributedTimes, error) {
	m := cfg.parity
	if err := ValidateCoded(c.Size(), m); err != nil {
		return DistributedTimes{}, err
	}
	e, localIn, err := pl.newDistExec(ctx, cfg, c, localOut, localIn)
	if err != nil {
		return DistributedTimes{}, err
	}

	// The protocol runs on the unwrapped c, not e.c: its parity and
	// recovery frames are booked by their own counters, not as messages.
	cx := &codedExchange{e: e, c: c, m: m, send: e.ws.send}
	if e.rec.On() { // match the uncoded path: count only when observing
		cx.rec = e.rec
	}
	var deg *DegradedError
	if e.window > 0 {
		deg, err = cx.runStreamed(ctx, localIn)
		if err != nil {
			return e.dt, err
		}
	} else {
		if _, err = e.produce(ctx, nil, []int{0, e.ws.jMid, e.bpr}, localIn, nil); err != nil {
			return e.dt, err
		}
		t0 := time.Now()
		e.tr.Begin(e.tid, e.rank, instrument.StageExchange.String())
		deg, err = cx.run()
		e.dt.Exchange = time.Since(t0)
		e.tr.End(e.tid, e.rank, instrument.StageExchange.String())
		if err != nil {
			return e.dt, err
		}
	}
	if err := ctx.Err(); err != nil {
		return e.dt, err
	}

	t0 := time.Now()
	e.tr.Begin(e.tid, e.rank, instrument.StageSegmentFFT.String())
	e.phase4(cx.columnChunk, localOut)
	if deg != nil && e.rank == deg.Coordinator {
		// Take over the dead ranks' segment assembly: the pipeline is
		// owner-agnostic, so feeding it dead rank d's column (pooled
		// survivor chunks plus decoded chunks) yields d's exact block.
		for _, d := range deg.ReconstructedRanks {
			out := make([]complex128, e.nLocal)
			e.phase4(func(src int) []complex128 { return cx.column(d, src) }, out)
			deg.TakenOver[d] = out
		}
	}
	e.dt.SegmentFT = time.Since(t0)
	e.tr.End(e.tid, e.rank, instrument.StageSegmentFFT.String())

	e.finish(localOut, deg)
	if deg != nil {
		if e.rec.On() {
			e.rec.CountDegraded()
		}
		return e.dt, deg
	}
	return e.dt, nil
}

// codedExchange is the per-rank state of one erasure-protected exchange.
type codedExchange struct {
	e    *distExec
	c    Comm
	rec  *instrument.Recorder // nil unless observing
	m    int
	send []complex128 // the workspace's packed buffer; dest t's chunk at [t·chunk, (t+1)·chunk)

	recv     [][]complex128 // recv[src] = C_{src→rank}; nil until received/refilled
	parityIn map[int][]complex128
	dead     []bool
	masks    []uint64 // view round: masks[x] bit j ⇔ rank x received C_{j→x}

	// Coordinator-only recovery state.
	decoded   map[int][][]complex128 // dead d → all R data chunks of d's codeword
	columns   map[int][][]complex128 // dead d → pooled survivor chunks C_{s→d}
	poolMasks map[int]uint64         // dead d → union of survivors' held data-share bits

	parityBytes, recoveryBytes int64
}

// columnChunk returns source src's contribution to this rank's own
// output column (after any refill, every source is present).
func (cx *codedExchange) columnChunk(src int) []complex128 { return cx.recv[src] }

// column returns source src's contribution to dead rank d's output
// column (coordinator only, after recovery).
func (cx *codedExchange) column(d, src int) []complex128 {
	if cx.dead[src] {
		return cx.decoded[src][d]
	}
	return cx.columns[d][src]
}

func (cx *codedExchange) markDead(rank int) { cx.dead[rank] = true }

// setup initializes the per-rank exchange state shared by the blocking
// and streamed fan-outs.
func (cx *codedExchange) setup() {
	r, ws := cx.e.r, cx.e.ws
	ws.parityIn = grown(ws.parityIn, cx.m*cx.e.chunk)
	cx.recv = make([][]complex128, r)
	cx.parityIn = make(map[int][]complex128)
	cx.dead = make([]bool, r)
	cx.masks = make([]uint64, r)
}

// codeStripElems is the strip length of the parity encode: the shares'
// byte images are produced and coded a strip at a time, so the scratch is
// (R+m)·64 KiB of cache-resident bytes instead of a second copy of the
// whole exchange buffer. The code is byte-wise, so stripping changes no
// parity bit.
const codeStripElems = 4096

// encodeParity encodes this rank's codeword: the R outgoing chunks — the
// unsent self-chunk included, so the exchange's redundancy also covers
// this rank's contribution to its own column — plus m parity shares.
// Coding is on the Float64bits byte image, so any k-of-n subset decodes
// to bit-identical chunks. The shares live in the workspace.
func (cx *codedExchange) encodeParity() (*erasure.Code, [][]complex128, error) {
	r, chunk, m, ws := cx.e.r, cx.e.chunk, cx.m, cx.e.ws
	if m == 0 {
		return nil, nil, nil
	}
	code, err := erasure.New(r, m)
	if err != nil {
		return nil, nil, err
	}
	ws.parity = grown(ws.parity, m*chunk)
	ws.code = grown(ws.code, (r+m)*codeStripElems*16)
	shares := make([][]byte, r+m)
	parityOut := make([][]complex128, m)
	for i := range parityOut {
		parityOut[i] = ws.parity[i*chunk : (i+1)*chunk]
	}
	for off := 0; off < chunk; off += codeStripElems {
		n := min(codeStripElems, chunk-off)
		for j := range shares {
			shares[j] = ws.code[j*codeStripElems*16:][:n*16]
			if j < r {
				erasure.ComplexToBytes(shares[j][:0], cx.send[j*chunk+off:j*chunk+off+n])
			}
		}
		if err := code.Encode(shares[:r], shares[r:]); err != nil {
			return nil, nil, err
		}
		for i, out := range parityOut {
			if _, err := erasure.BytesToComplex(out[off:off], shares[r+i]); err != nil {
				return nil, nil, err
			}
		}
	}
	return code, parityOut, nil
}

// sendParity ships parity share i to rank+1+i (the blocking and streamed
// fan-outs share it; on the streamed path the per-link FIFO places these
// frames after every data tile, so receivers drain the stream first).
func (cx *codedExchange) sendParity(parityOut [][]complex128) {
	e, c := cx.e, cx.c
	for i := 0; i < cx.m; i++ {
		s := (e.rank + 1 + i) % e.r
		if err := c.Send(s, tagCodedParity-i, parityOut[i]); err != nil {
			cx.markDead(s)
			continue
		}
		cx.parityBytes += int64(e.chunk) * 16
	}
	cx.rec.CountParityBytes(cx.parityBytes)
}

// fanOutParity encodes and ships this rank's parity shares — the shared
// tail of the blocking and streamed data fan-outs — then passes the
// chaos failpoint.
func (cx *codedExchange) fanOutParity() (*erasure.Code, error) {
	code, parityOut, err := cx.encodeParity()
	if err != nil {
		return nil, err
	}
	cx.sendParity(parityOut)
	if fp := CodedExchangeFailpoint; fp != nil {
		return code, fp(cx.e.rank)
	}
	return code, nil
}

// run executes the blocking coded exchange: encode, fan out, detect, and
// (when needed and possible) recover. On success every survivor's own
// column is complete; a non-nil *DegradedError reports reconstructions.
func (cx *codedExchange) run() (*DegradedError, error) {
	e, c := cx.e, cx.c
	r, rank, chunk, rec := e.r, e.rank, e.chunk, cx.rec
	cx.setup()
	cx.recv[rank] = e.chunkOf(rank)

	// Fan out: data chunk to every peer, parity share i to rank+1+i. A
	// send failure means the peer is already dead; note it and move on.
	if rank == 0 {
		rec.CountAlltoallOp()
	}
	rec.CountAlltoallBytes(int64(r-1) * int64(chunk) * 16)
	for off := 1; off < r; off++ {
		s := (rank + off) % r
		if err := c.Send(s, tagCodedData, cx.send[s*chunk:(s+1)*chunk]); err != nil {
			cx.markDead(s)
		}
	}
	code, err := cx.fanOutParity()
	if err != nil {
		return nil, err
	}

	// Receive data (and the parity share each source addressed to us, if
	// any) into the workspace, in the layout of every other exchange.
	// Frame order per link is fixed — data, then parity — matching the
	// fan-out. Receives are attempted even from peers already marked dead
	// (e.g. because our send to them failed): a gracefully dying peer
	// flushes its frames before the FIN and the transport keeps a dead
	// link's queued frames readable, so the victim's contribution usually
	// survives it; a dead link with nothing queued fails immediately,
	// without a deadline wait. A frame the wrong size fails its receive
	// like a dead link: the source is lost.
	for off := 1; off < r; off++ {
		src := (rank + off) % r
		dst := e.chunkOf(src)
		if err := c.RecvInto(dst, src, tagCodedData); err != nil {
			cx.markDead(src)
			continue
		}
		cx.recv[src] = dst
		cx.recvParity(src)
	}

	return cx.detect(code, rec)
}

// recvParity receives the parity share src addressed to this rank, if
// any, into the workspace; it follows src's data on the link. A failed
// receive marks src dead.
func (cx *codedExchange) recvParity(src int) {
	e := cx.e
	i := (e.rank - src - 1 + 2*e.r) % e.r
	if i >= cx.m {
		return
	}
	share := e.ws.parityIn[i*e.chunk : (i+1)*e.chunk]
	if err := cx.c.RecvInto(share, src, tagCodedParity-i); err != nil {
		cx.markDead(src)
		return
	}
	cx.parityIn[src] = share
}

// detect runs the view and agreement rounds over the received state and,
// when losses are within budget, the recovery — the shared tail of the
// blocking and streamed fan-outs.
func (cx *codedExchange) detect(code *erasure.Code, rec *instrument.Recorder) (*DegradedError, error) {
	e, m := cx.e, cx.m
	r, rank := e.r, e.rank

	// View round: exchange receipt masks. A peer unreachable here is
	// dead. Masks travel as exact float64 integers (≤ 52 bits, enforced
	// by ValidateCoded).
	myMask := uint64(1) << uint(rank)
	for j := 0; j < r; j++ {
		if cx.recv[j] != nil {
			myMask |= uint64(1) << uint(j)
		}
	}
	cx.masks[rank] = myMask
	cx.exchangeMasks(tagCodedView, myMask, cx.masks)

	// Agreement round: union everyone's observed dead set, so all
	// survivors run the same recovery (or fail the same way). Handles
	// crashes up to the start of the view round; later crashes surface
	// as typed transport errors during recovery.
	myDead := uint64(0)
	for j, d := range cx.dead {
		if d {
			myDead |= uint64(1) << uint(j)
		}
	}
	agreed := make([]uint64, r)
	agreed[rank] = myDead
	cx.exchangeMasks(tagCodedAgree, myDead, agreed)
	deadMask := uint64(0)
	for j, d := range cx.dead {
		if d { // include deaths first observed during the mask rounds
			deadMask |= uint64(1) << uint(j)
		}
		deadMask |= agreed[j]
	}

	var deadList []int
	for j := 0; j < r; j++ {
		if deadMask&(1<<uint(j)) != 0 {
			cx.dead[j] = true
			deadList = append(deadList, j)
		}
	}
	if len(deadList) > 0 { // mask rounds count as recovery traffic only on failure
		rec.CountRecoveryBytes(cx.recoveryBytes)
	}
	if deadMask&(1<<uint(rank)) != 0 {
		return nil, &UnrecoverableLossError{DeadRanks: deadList, Parity: m,
			Cause: errors.New("peers declared this rank dead (asymmetric link failure)")}
	}
	// A survivor missing a chunk from another survivor is a live-link
	// loss; the pooling protocol only repairs dead sources, so fail
	// typed rather than recover wrong.
	for x := 0; x < r; x++ {
		if cx.dead[x] {
			continue
		}
		for y := 0; y < r; y++ {
			if !cx.dead[y] && cx.masks[x]&(1<<uint(y)) == 0 {
				return nil, &UnrecoverableLossError{DeadRanks: deadList, Parity: m,
					Cause: fmt.Errorf("rank %d lost the chunk from live rank %d (link failure between survivors)", x, y)}
			}
		}
	}
	if len(deadList) == 0 {
		return nil, nil
	}
	if len(deadList) > m {
		return nil, &UnrecoverableLossError{DeadRanks: deadList, Parity: m}
	}

	return cx.recover(code, deadList)
}

// runStreamed executes the coded exchange over the streamed tile
// fan-out: data tiles travel through the windowed chunk stream
// (overlapped with convolution exactly as in the uncoded streamed path),
// parity is encoded over the completed packed buffer after the produce
// loop and ships on the usual parity tags — per-link FIFO places those
// frames after every data tile, so a receiver drains the stream fully
// and then finds the parity heading its mailboxes, the same per-link
// order as the blocking fan-out. Detection and recovery are the shared
// tail, so outcomes (clean, degraded bit-exact, typed loss) are
// identical to the blocking coded exchange.
func (cx *codedExchange) runStreamed(ctx context.Context, localIn []complex128) (deg *DegradedError, err error) {
	e, r, rank, rec := cx.e, cx.e.r, cx.e.rank, cx.rec
	cx.setup()

	st, bounds, got, done := e.startStream()
	defer st.Close()
	streamStart := time.Now()

	// Remote tiles land in the workspace's per-source chunks; the
	// self-chunk aliases the packed send buffer once the producer
	// finishes.
	for src := 0; src < r; src++ {
		cx.recv[src] = e.chunkOf(src)
	}

	// Route around a dead destination; detection settles it.
	sendWait, perr := e.produce(ctx, st, bounds, localIn, cx.markDead)
	tExch := time.Now()
	e.tr.Begin(e.tid, rank, instrument.StageExchange.String())
	defer e.bookStream(streamStart, tExch, sendWait)
	if perr != nil {
		return nil, perr // context cancellation or a halo send failure
	}

	code, err := cx.fanOutParity()
	if err != nil {
		return nil, err
	}

	// Drain fully before any parity receive: the stream's per-source
	// receiver goroutines pop tile frames from the same per-link mailboxes
	// the ordinary receives use, so the parity frames are safe to receive
	// only once every receiver has delivered its last event.
	<-done

	// A source whose stream ended early lost tiles — a dead link, or a
	// frame the wrong size for its slot: dead (its receiver may have left
	// tile frames queued, so its parity is unreachable — skip it).
	// Completed sources behave exactly as in the blocking receive loop, a
	// gracefully dying peer's flushed tiles and parity included.
	for off := 1; off < r; off++ {
		src := (rank + off) % r
		if got[src] < len(bounds)-1 {
			cx.recv[src] = nil
			cx.markDead(src)
			continue
		}
		cx.recvParity(src)
	}

	return cx.detect(code, rec)
}

// exchangeMasks runs one all-pairs round of single-value control frames,
// filling out[src] for every live peer and marking unreachable peers
// dead.
func (cx *codedExchange) exchangeMasks(tag int, mine uint64, out []uint64) {
	e, c := cx.e, cx.c
	payload := []complex128{complex(float64(mine), 0)}
	for off := 1; off < e.r; off++ {
		s := (e.rank + off) % e.r
		if cx.dead[s] {
			continue
		}
		if err := c.Send(s, tag, payload); err != nil {
			cx.markDead(s)
			continue
		}
		cx.recoveryBytes += 16
	}
	for off := 1; off < e.r; off++ {
		src := (e.rank + off) % e.r
		if cx.dead[src] {
			continue
		}
		v, err := c.RecvC(src, tag)
		if err != nil || len(v) != 1 {
			cx.markDead(src)
			continue
		}
		out[src] = uint64(real(v[0]))
	}
}

// recover pools the surviving shares of every dead rank's codeword at
// the coordinator (min surviving rank), decodes them, refills survivors
// whose own chunks were lost, and retains the decoded columns for the
// coordinator's output takeover.
func (cx *codedExchange) recover(code *erasure.Code, deadList []int) (*DegradedError, error) {
	e, c, m := cx.e, cx.c, cx.m
	r, rank, chunk, rec := e.r, e.rank, e.chunk, cx.rec

	coord := -1
	for j := 0; j < r; j++ {
		if !cx.dead[j] {
			coord = j
			break
		}
	}
	cx.decoded = make(map[int][][]complex128)
	cx.columns = make(map[int][][]complex128)
	base := cx.recoveryBytes // mask-round bytes, already booked by run()

	var decodeErr error
	for _, d := range deadList {
		if rank != coord {
			if err := cx.sendPool(coord, d); err != nil {
				return nil, err
			}
			continue
		}
		if decodeErr != nil {
			continue // first failure decides; remaining pool frames stay queued
		}
		if err := cx.poolAndDecode(code, d, coord); err != nil {
			decodeErr = err
			continue
		}
		rec.CountReconstruction()
	}
	// Outcome round: the coordinator tells every survivor whether the
	// decodes succeeded, so an infeasible recovery fails typed on every
	// rank (and no survivor blocks on a refill that will never come).
	var lateErr error
	if rank == coord {
		verdict := []complex128{1}
		if decodeErr != nil {
			verdict[0] = 0
		}
		for s := 0; s < r; s++ {
			if s == coord || cx.dead[s] {
				continue
			}
			if err := c.Send(s, tagCodedOutcome, verdict); err != nil {
				cx.markDead(s) // died during recovery; skip its refills
				if lateErr == nil {
					lateErr = err
				}
				continue
			}
			cx.recoveryBytes += 16
		}
		if decodeErr != nil {
			return nil, decodeErr
		}
	} else {
		v, err := c.RecvC(coord, tagCodedOutcome)
		if err != nil {
			return nil, err
		}
		if len(v) != 1 || real(v[0]) == 0 {
			return nil, &UnrecoverableLossError{DeadRanks: deadList, Parity: m,
				Cause: errors.New("coordinator could not reconstruct the lost codewords")}
		}
	}
	// Refills, after all decodes: the coordinator returns each survivor
	// the chunks it was missing (per the pooled held-masks); survivors
	// block only on the chunks they know they lack.
	for _, d := range deadList {
		if rank == coord {
			for s := 0; s < r; s++ {
				if s == coord || cx.dead[s] || cx.heldBy(s, d) {
					continue
				}
				if err := c.Send(s, tagCodedRefill-d, cx.decoded[d][s]); err != nil {
					return nil, err
				}
				cx.recoveryBytes += int64(chunk) * 16
			}
			continue
		}
		if cx.recv[d] == nil {
			data, err := c.RecvC(coord, tagCodedRefill-d)
			if err != nil {
				return nil, err
			}
			if len(data) != chunk {
				return nil, &UnrecoverableLossError{DeadRanks: deadList, Parity: m,
					Cause: fmt.Errorf("malformed refill for rank %d: %d elements, want %d", d, len(data), chunk)}
			}
			cx.recv[d] = data
		}
	}
	rec.CountRecoveryBytes(cx.recoveryBytes - base)
	if lateErr != nil { // a survivor died mid-recovery; its column is gone
		return nil, lateErr
	}
	deg := &DegradedError{
		ReconstructedRanks: append([]int(nil), deadList...),
		Coordinator:        coord,
		ParityBytes:        cx.parityBytes,
		RecoveryBytes:      cx.recoveryBytes,
		TakenOver:          map[int][]complex128{},
	}
	sort.Ints(deg.ReconstructedRanks)
	return deg, nil
}

// heldBy reports whether survivor s received dead rank d's chunk
// directly (known to the coordinator from s's pooled held-mask).
func (cx *codedExchange) heldBy(s, d int) bool {
	return cx.poolMasks[d]&(1<<uint(s)) != 0
}

// sendPool ships this survivor's shares of dead rank d's codeword to
// the coordinator: a held-mask header, the held shares in ascending
// share-index order, then this rank's own column chunk C_{rank→d}.
func (cx *codedExchange) sendPool(coord, d int) error {
	e, chunk := cx.e, cx.e.chunk
	r, rank := e.r, e.rank
	held, parts := uint64(0), make([][]complex128, 0, 3)
	if cx.recv[d] != nil { // data share index = this rank
		held |= 1 << uint(rank)
		parts = append(parts, cx.recv[d])
	}
	if p, ok := cx.parityIn[d]; ok { // parity share index = r + i
		i := (rank - d - 1 + 2*r) % r
		held |= 1 << uint(r+i)
		parts = append(parts, p)
	}
	parts = append(parts, cx.send[d*chunk:(d+1)*chunk])
	frame := make([]complex128, 1, 1+len(parts)*chunk) // sized exactly
	frame[0] = complex(float64(held), 0)
	for _, p := range parts {
		frame = append(frame, p...)
	}
	if err := cx.c.Send(coord, tagCodedPool-d, frame); err != nil {
		return err
	}
	cx.recoveryBytes += int64(len(frame)) * 16
	return nil
}

// poolAndDecode (coordinator) gathers every survivor's pool frame for
// dead rank d, assembles the share set, reconstructs the codeword, and
// stores the decoded data chunks and the pooled column.
func (cx *codedExchange) poolAndDecode(code *erasure.Code, d, coord int) error {
	e, c, m := cx.e, cx.c, cx.m
	r, chunk := e.r, e.chunk
	if cx.poolMasks == nil {
		cx.poolMasks = make(map[int]uint64)
	}
	shares := make([][]byte, r+m)
	column := make([][]complex128, r)
	heldUnion := uint64(0)

	addShare := func(idx int, data []complex128) {
		shares[idx] = erasure.ComplexToBytes(nil, data)
	}
	// The coordinator's own holdings.
	if cx.recv[d] != nil {
		addShare(coord, cx.recv[d])
		heldUnion |= 1 << uint(coord)
	}
	if p, ok := cx.parityIn[d]; ok {
		i := (coord - d - 1 + 2*r) % r
		addShare(r+i, p)
	}
	column[coord] = cx.send[d*chunk : (d+1)*chunk]

	for s := 0; s < r; s++ {
		if s == coord || cx.dead[s] {
			continue
		}
		frame, err := c.RecvC(s, tagCodedPool-d)
		if err != nil {
			return err
		}
		if len(frame) < 1+chunk {
			return &UnrecoverableLossError{DeadRanks: []int{d}, Parity: m,
				Cause: fmt.Errorf("malformed pool frame from rank %d: %d elements", s, len(frame))}
		}
		held := uint64(real(frame[0]))
		off := 1
		for idx := 0; idx < r+m; idx++ {
			if held&(1<<uint(idx)) == 0 {
				continue
			}
			if off+chunk > len(frame) {
				return &UnrecoverableLossError{DeadRanks: []int{d}, Parity: m,
					Cause: fmt.Errorf("truncated pool frame from rank %d", s)}
			}
			addShare(idx, frame[off:off+chunk])
			off += chunk
		}
		if off+chunk != len(frame) {
			return &UnrecoverableLossError{DeadRanks: []int{d}, Parity: m,
				Cause: fmt.Errorf("pool frame from rank %d has %d trailing elements, want %d", s, len(frame)-off, chunk)}
		}
		column[s] = frame[off : off+chunk]
		heldUnion |= held & ((1 << uint(r)) - 1)
	}
	cx.poolMasks[d] = heldUnion

	present := 0
	for _, sh := range shares {
		if sh != nil {
			present++
		}
	}
	if present < r {
		return &UnrecoverableLossError{DeadRanks: []int{d}, Parity: m,
			Cause: fmt.Errorf("%w: %d of %d shares survive for rank %d's codeword", erasure.ErrTooFewShares, present, r, d)}
	}
	if err := code.Reconstruct(shares); err != nil {
		return &UnrecoverableLossError{DeadRanks: []int{d}, Parity: m, Cause: err}
	}
	decoded := make([][]complex128, r)
	for j := 0; j < r; j++ {
		dc, err := erasure.BytesToComplex(nil, shares[j])
		if err != nil {
			return &UnrecoverableLossError{DeadRanks: []int{d}, Parity: m, Cause: err}
		}
		decoded[j] = dc
	}
	cx.decoded[d] = decoded
	cx.columns[d] = column
	// The coordinator's own column chunk from d may also have been lost.
	if cx.recv[d] == nil {
		cx.recv[d] = decoded[coord]
	}
	return nil
}

// GatherDegraded collects the full spectrum after a coded transform.
// With deg == nil it is a plain Gather at root. After a degraded run,
// survivors route around the dead ranks: the gather lands at root if
// root survived, else at the recovery coordinator, and the coordinator
// contributes the taken-over blocks. It returns the full
// output (nil on ranks other than the effective root), the effective
// root's rank, and any typed transport failure.
func GatherDegraded(c Comm, root int, own []complex128, deg *DegradedError) (full []complex128, at int, err error) {
	if deg == nil {
		full, err = c.Gather(root, own)
		return full, root, err
	}
	r, rank, nLocal := c.Size(), c.Rank(), len(own)
	dead := make(map[int]bool, len(deg.ReconstructedRanks))
	for _, d := range deg.ReconstructedRanks {
		dead[d] = true
	}
	at = root
	if dead[root] {
		at = deg.Coordinator
	}
	if rank != at {
		if err := c.Send(at, tagCodedGather, own); err != nil {
			return nil, at, err
		}
		if rank == deg.Coordinator {
			for _, d := range deg.ReconstructedRanks {
				if err := c.Send(at, tagCodedGather-1-d, deg.TakenOver[d]); err != nil {
					return nil, at, err
				}
			}
		}
		return nil, at, nil
	}
	full = make([]complex128, r*nLocal)
	copy(full[rank*nLocal:], own)
	for s := 0; s < r; s++ {
		if s == rank || dead[s] {
			continue
		}
		data, err := c.RecvC(s, tagCodedGather)
		if err != nil {
			return nil, at, err
		}
		if len(data) != nLocal {
			return nil, at, &UnrecoverableLossError{Parity: -1,
				Cause: fmt.Errorf("degraded gather: rank %d sent %d elements, want %d", s, len(data), nLocal)}
		}
		copy(full[s*nLocal:], data)
	}
	for _, d := range deg.ReconstructedRanks {
		var block []complex128
		if rank == deg.Coordinator {
			block = deg.TakenOver[d]
		} else {
			var err error
			block, err = c.RecvC(deg.Coordinator, tagCodedGather-1-d)
			if err != nil {
				return nil, at, err
			}
		}
		if len(block) != nLocal {
			return nil, at, &UnrecoverableLossError{Parity: -1,
				Cause: fmt.Errorf("degraded gather: taken-over block for rank %d has %d elements, want %d", d, len(block), nLocal)}
		}
		copy(full[d*nLocal:], block)
	}
	return full, at, nil
}
