// Package serve is the FFT-as-a-service layer: a TCP server that
// resolves transform requests through an LRU plan cache, coalesces
// same-plan requests into batches executed on a bounded worker pool,
// applies backpressure when the queue fills, drains gracefully on
// shutdown, and exports live metrics over HTTP.
//
// The wire protocol is length-prefixed frames in the style of
// internal/mpinet (stdlib only, little-endian): one request frame in,
// one response frame out, repeated over a long-lived connection. A
// request names the plan (n, segments, oversampling, taps or accuracy
// rung) and direction, followed by the payload; the response carries a
// status, an optional message and retry hint, and the transformed
// payload.
package serve

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"time"

	"soifft/internal/exch"
)

// Wire constants. Protocol v2 appends a trace ID to the request header
// (trailing 8 bytes); v1 requests — the original 44-byte header — are
// still accepted, and responses echo the requester's version so v1
// clients never see a version byte they would reject.
const (
	Magic     = 0x53494F53 // "SOIS"
	Version   = 2
	VersionV1 = 1

	reqHeaderLenV1 = 44
	reqHeaderLen   = reqHeaderLenV1 + 8 // + trace ID
	respHeaderLen  = 24
)

// Op selects the operation a request performs.
type Op uint8

// Operations.
const (
	OpForward Op = 1 // dst = DFT(src)
	OpInverse Op = 2 // dst = IDFT(src)
	OpPing    Op = 3 // empty round trip (health/latency probe)
)

// AccuracyNone marks a request that sizes the convolution by explicit
// taps (or server defaults) rather than an accuracy rung.
const AccuracyNone = -1

// Request is one transform request. Zero parameter fields mean "server
// default" (the server resolves them exactly as soifft.NewPlan would).
type Request struct {
	Op       Op
	N        int
	Segments int    // 0 = default
	Mu, Nu   int    // 0,0 = default oversampling 5/4
	Taps     int    // 0 = default (ignored when Accuracy >= 0)
	Accuracy int    // AccuracyNone, or a soifft.Accuracy value
	TraceID  uint64 // distributed-tracing correlation ID (0 = untraced; v2 only)
	Proto    uint8  // wire version to use / that was used (0 = current Version)
	Data     []complex128
}

// proto resolves the version a frame should be written with.
func (req *Request) proto() uint8 {
	if req.Proto == 0 {
		return Version
	}
	return req.Proto
}

// Status is the response disposition.
type Status uint8

// Response statuses.
const (
	StatusOK         Status = 0
	StatusBadRequest Status = 1 // malformed or unplannable request
	StatusOverloaded Status = 2 // queue full; retry after the hint
	StatusDraining   Status = 3 // server is shutting down; retry elsewhere
	StatusInternal   Status = 4 // transform failed server-side
)

func (s Status) String() string {
	switch s {
	case StatusOK:
		return "ok"
	case StatusBadRequest:
		return "bad-request"
	case StatusOverloaded:
		return "overloaded"
	case StatusDraining:
		return "draining"
	case StatusInternal:
		return "internal"
	default:
		return fmt.Sprintf("status(%d)", uint8(s))
	}
}

// Response is one reply frame.
type Response struct {
	Status     Status
	RetryAfter time.Duration // backpressure hint (Overloaded/Draining)
	Msg        string        // human-readable detail for non-OK statuses
	Proto      uint8         // version byte to write / that was read (0 = current Version)
	Data       []complex128
}

// ServerError is the typed error a non-OK response converts to on the
// client side.
type ServerError struct {
	Status     Status
	Msg        string
	RetryAfter time.Duration
}

func (e *ServerError) Error() string {
	if e.Msg != "" {
		return fmt.Sprintf("soiserve: %s: %s", e.Status, e.Msg)
	}
	return fmt.Sprintf("soiserve: %s", e.Status)
}

// Temporary reports whether retrying the same request later can succeed.
func (e *ServerError) Temporary() bool {
	return e.Status == StatusOverloaded || e.Status == StatusDraining
}

// IsOverloaded reports whether err is a backpressure rejection, and if
// so returns the server's retry-after hint.
func IsOverloaded(err error) (time.Duration, bool) {
	var se *ServerError
	if errors.As(err, &se) && se.Status == StatusOverloaded {
		return se.RetryAfter, true
	}
	return 0, false
}

// IsDraining reports whether err is a shutdown rejection.
func IsDraining(err error) bool {
	var se *ServerError
	return errors.As(err, &se) && se.Status == StatusDraining
}

// WriteRequest writes one request frame, in the version req.Proto
// selects (current when zero; the v1 form drops the trace ID).
func WriteRequest(w io.Writer, req *Request) error {
	var hdr [reqHeaderLen]byte
	ver := req.proto()
	binary.LittleEndian.PutUint32(hdr[0:], Magic)
	hdr[4] = ver
	hdr[5] = byte(req.Op)
	binary.LittleEndian.PutUint64(hdr[8:], uint64(req.N))
	binary.LittleEndian.PutUint32(hdr[16:], uint32(req.Segments))
	binary.LittleEndian.PutUint32(hdr[20:], uint32(req.Mu))
	binary.LittleEndian.PutUint32(hdr[24:], uint32(req.Nu))
	binary.LittleEndian.PutUint32(hdr[28:], uint32(req.Taps))
	binary.LittleEndian.PutUint32(hdr[32:], uint32(int32(req.Accuracy)))
	binary.LittleEndian.PutUint64(hdr[36:], uint64(len(req.Data)))
	n := reqHeaderLenV1
	if ver >= Version {
		binary.LittleEndian.PutUint64(hdr[reqHeaderLenV1:], req.TraceID)
		n = reqHeaderLen
	}
	if _, err := w.Write(hdr[:n]); err != nil {
		return err
	}
	return writeComplex(w, req.Data)
}

// ReadRequest reads one request frame, rejecting payloads longer than
// maxCount points. Both protocol versions are accepted: the version
// byte decides whether the trailing trace ID is present, and the frame
// version read is recorded in req.Proto so responses can echo it. The
// caller owns req.Data (see Release).
func ReadRequest(r io.Reader, maxCount int) (*Request, error) {
	var hdr [reqHeaderLen]byte
	if _, err := io.ReadFull(r, hdr[:reqHeaderLenV1]); err != nil {
		return nil, err
	}
	if m := binary.LittleEndian.Uint32(hdr[0:]); m != Magic {
		return nil, fmt.Errorf("serve: bad magic %#x", m)
	}
	ver := hdr[4]
	if ver != VersionV1 && ver != Version {
		return nil, fmt.Errorf("serve: protocol version %d unsupported (want %d or %d)", ver, VersionV1, Version)
	}
	req := &Request{
		Op:       Op(hdr[5]),
		N:        int(binary.LittleEndian.Uint64(hdr[8:])),
		Segments: int(binary.LittleEndian.Uint32(hdr[16:])),
		Mu:       int(binary.LittleEndian.Uint32(hdr[20:])),
		Nu:       int(binary.LittleEndian.Uint32(hdr[24:])),
		Taps:     int(binary.LittleEndian.Uint32(hdr[28:])),
		Accuracy: int(int32(binary.LittleEndian.Uint32(hdr[32:]))),
		Proto:    ver,
	}
	count := binary.LittleEndian.Uint64(hdr[36:])
	if ver >= Version {
		if _, err := io.ReadFull(r, hdr[reqHeaderLenV1:]); err != nil {
			return nil, err
		}
		req.TraceID = binary.LittleEndian.Uint64(hdr[reqHeaderLenV1:])
	}
	if count > uint64(maxCount) {
		return nil, fmt.Errorf("serve: payload of %d points exceeds limit %d", count, maxCount)
	}
	data, err := readComplex(r, int(count))
	if err != nil {
		return nil, err
	}
	req.Data = data
	return req, nil
}

// WriteResponse writes one response frame. The response layout is
// identical across protocol versions; the version byte echoes
// resp.Proto (current when zero) so a v1 client reads a v1 byte back.
func WriteResponse(w io.Writer, resp *Response) error {
	msg := []byte(resp.Msg)
	ver := resp.Proto
	if ver == 0 {
		ver = Version
	}
	var hdr [respHeaderLen]byte
	binary.LittleEndian.PutUint32(hdr[0:], Magic)
	hdr[4] = ver
	hdr[5] = byte(resp.Status)
	binary.LittleEndian.PutUint32(hdr[8:], uint32(resp.RetryAfter/time.Millisecond))
	binary.LittleEndian.PutUint32(hdr[12:], uint32(len(msg)))
	binary.LittleEndian.PutUint64(hdr[16:], uint64(len(resp.Data)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	if len(msg) > 0 {
		if _, err := w.Write(msg); err != nil {
			return err
		}
	}
	return writeComplex(w, resp.Data)
}

// ReadResponse reads one response frame, rejecting payloads longer than
// maxCount points. The caller owns resp.Data (see Release).
func ReadResponse(r io.Reader, maxCount int) (*Response, error) {
	var hdr [respHeaderLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	if m := binary.LittleEndian.Uint32(hdr[0:]); m != Magic {
		return nil, fmt.Errorf("serve: bad magic %#x", m)
	}
	v := hdr[4]
	if v != VersionV1 && v != Version {
		return nil, fmt.Errorf("serve: protocol version %d unsupported (want %d or %d)", v, VersionV1, Version)
	}
	resp := &Response{
		Status:     Status(hdr[5]),
		RetryAfter: time.Duration(binary.LittleEndian.Uint32(hdr[8:])) * time.Millisecond,
		Proto:      v,
	}
	msgLen := binary.LittleEndian.Uint32(hdr[12:])
	count := binary.LittleEndian.Uint64(hdr[16:])
	if msgLen > 1<<16 {
		return nil, fmt.Errorf("serve: message of %d bytes exceeds limit", msgLen)
	}
	if count > uint64(maxCount) {
		return nil, fmt.Errorf("serve: payload of %d points exceeds limit %d", count, maxCount)
	}
	if msgLen > 0 {
		msg := make([]byte, msgLen)
		if _, err := io.ReadFull(r, msg); err != nil {
			return nil, err
		}
		resp.Msg = string(msg)
	}
	data, err := readComplex(r, int(count))
	if err != nil {
		return nil, err
	}
	resp.Data = data
	return resp, nil
}

// Err converts a non-OK response into a *ServerError (nil for OK).
func (resp *Response) Err() error {
	if resp.Status == StatusOK {
		return nil
	}
	return &ServerError{Status: resp.Status, Msg: resp.Msg, RetryAfter: resp.RetryAfter}
}

// The payload codec streams through one pooled chunk, so a frame costs
// the decoded payload and nothing payload-sized besides.
const (
	chunkPoints = 2048
	chunkBytes  = 16 * chunkPoints // 32 KB
)

var (
	// payloads recycles decoded payloads and the server's result and
	// batch buffers; see Release.
	payloads exch.FreeList[complex128]
	// chunks recycles the codec's staging chunk.
	chunks exch.FreeList[byte]
)

// Release hands back a payload that ReadRequest or ReadResponse
// returned, for a later frame to reuse. Whoever read a frame owns its
// payload and may release it once nothing references it any more — in
// particular only after every frame carrying it has been written. A
// payload handed to code that keeps it must not be released. Releasing
// nil is a no-op.
func Release(b []complex128) { payloads.Put(b) }

func writeComplex(w io.Writer, data []complex128) error {
	if len(data) == 0 {
		return nil
	}
	buf := chunks.Get(chunkBytes)
	defer chunks.Put(buf)
	for len(data) > 0 {
		k := min(len(data), chunkPoints)
		for i, v := range data[:k] {
			binary.LittleEndian.PutUint64(buf[i*16:], math.Float64bits(real(v)))
			binary.LittleEndian.PutUint64(buf[i*16+8:], math.Float64bits(imag(v)))
		}
		if _, err := w.Write(buf[:16*k]); err != nil {
			return err
		}
		data = data[k:]
	}
	return nil
}

// readComplex decodes count points into a recycled payload; on a failed
// read the payload goes straight back.
func readComplex(r io.Reader, count int) ([]complex128, error) {
	if count == 0 {
		return nil, nil
	}
	data := payloads.Get(count)
	buf := chunks.Get(chunkBytes)
	defer chunks.Put(buf)
	for off := 0; off < count; off += chunkPoints {
		part := data[off:min(count, off+chunkPoints)]
		raw := buf[:16*len(part)]
		if _, err := io.ReadFull(r, raw); err != nil {
			Release(data)
			if err == io.EOF && off > 0 {
				err = io.ErrUnexpectedEOF // cut between chunks is still mid-payload
			}
			return nil, err
		}
		for i := range part {
			re := math.Float64frombits(binary.LittleEndian.Uint64(raw[i*16:]))
			im := math.Float64frombits(binary.LittleEndian.Uint64(raw[i*16+8:]))
			part[i] = complex(re, im)
		}
	}
	return data, nil
}
