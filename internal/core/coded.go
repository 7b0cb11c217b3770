package core

import (
	"errors"
	"fmt"
	"sort"

	"soifft/internal/erasure"
	"soifft/internal/exch"
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
	// ParityBytes counts erasure parity payload this rank sent, read
	// off its links' parity band (zero on a Comm without band counters).
	ParityBytes int64
	// RecoveryBytes counts view/agreement/outcome/pooling/refill payload
	// this rank sent, read off its links' coded-control band likewise.
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

// codedExchange is the per-rank state of one erasure-protected exchange.
type codedExchange struct {
	e    *distExec
	m    int
	code *erasure.Code

	recv     [][]complex128 // recv[src] = C_{src→rank}: the run's cols, nil while lost, then refilled
	parityIn map[int][]complex128
	dead     []bool
	masks    []uint64 // view round: masks[x] bit j ⇔ rank x received C_{j→x}

	// Coordinator-only recovery state.
	decoded   map[int][][]complex128 // dead d → all R data chunks of d's codeword
	columns   map[int][][]complex128 // dead d → pooled survivor chunks C_{s→d}
	poolMasks map[int]uint64         // dead d → union of survivors' held data-share bits
}

// column returns every source's contribution to dead rank d's output
// column (coordinator only, after recovery).
func (cx *codedExchange) column(d int) [][]complex128 {
	col := make([][]complex128, cx.e.r)
	for src := range col {
		if cx.dead[src] {
			col[src] = cx.decoded[src][d]
		} else {
			col[src] = cx.columns[d][src]
		}
	}
	return col
}

func (cx *codedExchange) markDead(rank int) { cx.dead[rank] = true }

// fanOutParity ships parity share i to rank+1+i, after the data fan-out,
// then passes the chaos failpoint. produce folded every tile into the
// shares, so they are complete once it returns.
func (cx *codedExchange) fanOutParity() error {
	e := cx.e
	for i := 0; i < cx.m; i++ {
		s := (e.rank + 1 + i) % e.r
		if err := e.c.Send(s, exch.TagCodedParity-i, e.ws.parity[i*e.chunk:(i+1)*e.chunk]); err != nil {
			cx.markDead(s)
		}
	}
	if fp := CodedExchangeFailpoint; fp != nil {
		return fp(e.rank)
	}
	return nil
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
	if err := e.c.RecvInto(share, src, exch.TagCodedParity-i); err != nil {
		cx.markDead(src)
		return
	}
	cx.parityIn[src] = share
}

// detect runs after the drain: it marks every source whose stream ended
// early dead and receives the others' parity, runs the view and
// agreement rounds over the received state and, when losses are within
// budget, the recovery. On success every survivor's own column is
// complete.
func (cx *codedExchange) detect() (*DegradedError, error) {
	e, m := cx.e, cx.m
	r, rank := e.r, e.rank

	// A source whose stream ended early lost chunks — a dead link, or a
	// frame the wrong size for its slot: dead, and its parity is skipped.
	// Receives are attempted even from peers already marked dead (e.g.
	// because our send to them failed): a gracefully dying peer flushes
	// its frames before the FIN and the transport keeps a dead link's
	// queued frames readable, so the victim's contribution usually
	// survives it.
	for off := 1; off < r; off++ {
		src := (rank + off) % r
		if e.ws.got[src] < len(e.chunks)-1 {
			cx.recv[src] = nil
			cx.markDead(src)
			continue
		}
		cx.recvParity(src)
	}

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
	cx.exchangeMasks(exch.TagCodedView, myMask, cx.masks)

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
	cx.exchangeMasks(exch.TagCodedAgree, myDead, agreed)
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

	return cx.recover(deadList)
}

// exchangeMasks runs one all-pairs round of single-value control frames,
// filling out[src] for every live peer and marking unreachable peers
// dead.
func (cx *codedExchange) exchangeMasks(tag int, mine uint64, out []uint64) {
	e, c := cx.e, cx.e.c
	payload := []complex128{complex(float64(mine), 0)}
	for off := 1; off < e.r; off++ {
		s := (e.rank + off) % e.r
		if cx.dead[s] {
			continue
		}
		if err := c.Send(s, tag, payload); err != nil {
			cx.markDead(s)
		}
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
func (cx *codedExchange) recover(deadList []int) (*DegradedError, error) {
	e, c, m := cx.e, cx.e.c, cx.m
	r, rank, chunk := e.r, e.rank, e.chunk

	coord := -1
	for j := 0; j < r; j++ {
		if !cx.dead[j] {
			coord = j
			break
		}
	}
	cx.decoded = make(map[int][][]complex128)
	cx.columns = make(map[int][][]complex128)

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
		if err := cx.poolAndDecode(d, coord); err != nil {
			decodeErr = err
			continue
		}
		if e.rec.On() {
			e.rec.CountReconstruction()
		}
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
			if err := c.Send(s, exch.TagCodedOutcome, verdict); err != nil {
				cx.markDead(s) // died during recovery; skip its refills
				if lateErr == nil {
					lateErr = err
				}
			}
		}
		if decodeErr != nil {
			return nil, decodeErr
		}
	} else {
		v, err := c.RecvC(coord, exch.TagCodedOutcome)
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
				if err := c.Send(s, exch.TagCodedRefill-d, cx.decoded[d][s]); err != nil {
					return nil, err
				}
			}
			continue
		}
		if cx.recv[d] == nil {
			data, err := c.RecvC(coord, exch.TagCodedRefill-d)
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
	if lateErr != nil { // a survivor died mid-recovery; its column is gone
		return nil, lateErr
	}
	deg := &DegradedError{
		ReconstructedRanks: append([]int(nil), deadList...),
		Coordinator:        coord,
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
	parts = append(parts, e.ws.send[d*chunk:(d+1)*chunk])
	frame := make([]complex128, 1, 1+len(parts)*chunk) // sized exactly
	frame[0] = complex(float64(held), 0)
	for _, p := range parts {
		frame = append(frame, p...)
	}
	return e.c.Send(coord, exch.TagCodedPool-d, frame)
}

// poolAndDecode (coordinator) gathers every survivor's pool frame for
// dead rank d, assembles the share set, reconstructs the codeword, and
// stores the decoded data chunks and the pooled column.
func (cx *codedExchange) poolAndDecode(d, coord int) error {
	e, c, m := cx.e, cx.e.c, cx.m
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
	column[coord] = e.ws.send[d*chunk : (d+1)*chunk]

	for s := 0; s < r; s++ {
		if s == coord || cx.dead[s] {
			continue
		}
		frame, err := c.RecvC(s, exch.TagCodedPool-d)
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
	if err := cx.code.Reconstruct(shares); err != nil {
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
		if err := c.Send(at, exch.TagCodedGather, own); err != nil {
			return nil, at, err
		}
		if rank == deg.Coordinator {
			for _, d := range deg.ReconstructedRanks {
				if err := c.Send(at, exch.TagCodedGather-1-d, deg.TakenOver[d]); err != nil {
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
		data, err := c.RecvC(s, exch.TagCodedGather)
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
			block, err = c.RecvC(deg.Coordinator, exch.TagCodedGather-1-d)
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
