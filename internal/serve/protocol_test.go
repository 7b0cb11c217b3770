package serve

import (
	"bytes"
	"encoding/hex"
	"errors"
	"io"
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"
)

func TestRequestRoundTrip(t *testing.T) {
	req := &Request{
		Op: OpForward, N: 4, Segments: 2, Mu: 5, Nu: 4, Taps: 24,
		Accuracy: AccuracyNone,
		Data:     []complex128{1, 2i, -3, complex(0.5, -0.25)},
	}
	var buf bytes.Buffer
	if err := WriteRequest(&buf, req); err != nil {
		t.Fatal(err)
	}
	got, err := ReadRequest(&buf, 8)
	if err != nil {
		t.Fatal(err)
	}
	if got.Op != req.Op || got.N != req.N || got.Segments != req.Segments ||
		got.Mu != req.Mu || got.Nu != req.Nu || got.Taps != req.Taps ||
		got.Accuracy != req.Accuracy {
		t.Fatalf("header round trip: %+v != %+v", got, req)
	}
	for i := range req.Data {
		if got.Data[i] != req.Data[i] {
			t.Fatalf("payload[%d] = %v, want %v", i, got.Data[i], req.Data[i])
		}
	}
}

func TestResponseRoundTrip(t *testing.T) {
	resp := &Response{
		Status: StatusOverloaded, RetryAfter: 25 * time.Millisecond,
		Msg: "queue full (256 jobs)",
	}
	var buf bytes.Buffer
	if err := WriteResponse(&buf, resp); err != nil {
		t.Fatal(err)
	}
	got, err := ReadResponse(&buf, 8)
	if err != nil {
		t.Fatal(err)
	}
	if got.Status != resp.Status || got.RetryAfter != resp.RetryAfter || got.Msg != resp.Msg {
		t.Fatalf("round trip: %+v != %+v", got, resp)
	}
	var se *ServerError
	if err := got.Err(); !errors.As(err, &se) || !se.Temporary() {
		t.Fatalf("expected temporary ServerError, got %v", err)
	}
	if wait, ok := IsOverloaded(got.Err()); !ok || wait != 25*time.Millisecond {
		t.Fatalf("IsOverloaded = %v, %v", wait, ok)
	}
}

func TestReadRequestLimits(t *testing.T) {
	var buf bytes.Buffer
	req := &Request{Op: OpForward, N: 16, Accuracy: AccuracyNone, Data: make([]complex128, 16)}
	if err := WriteRequest(&buf, req); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadRequest(&buf, 8); err == nil || !strings.Contains(err.Error(), "exceeds limit") {
		t.Fatalf("oversize payload: err = %v", err)
	}
	// Bad magic.
	if _, err := ReadRequest(strings.NewReader(strings.Repeat("x", reqHeaderLen)), 8); err == nil {
		t.Fatal("bad magic accepted")
	}
}

// codecCounts straddle the codec's chunk: one point, both sides of one
// chunk, and a payload that ends partway into its fourth chunk.
var codecCounts = []int{1, chunkPoints - 1, chunkPoints, chunkPoints + 1, 3*chunkPoints + 7}

// randomBits fills a payload with arbitrary float64 bit patterns (NaNs,
// infinities and signed zeros included), so only a bit-exact codec
// round-trips it.
func randomBits(n int, seed int64) []complex128 {
	rng := rand.New(rand.NewSource(seed))
	data := make([]complex128, n)
	for i := range data {
		data[i] = complex(math.Float64frombits(rng.Uint64()), math.Float64frombits(rng.Uint64()))
	}
	return data
}

func sameBits(a, b []complex128) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(real(a[i])) != math.Float64bits(real(b[i])) ||
			math.Float64bits(imag(a[i])) != math.Float64bits(imag(b[i])) {
			return false
		}
	}
	return true
}

// TestCodecChunkBoundaries round-trips requests and responses in both
// protocol versions at every count around the chunk size, and cuts each
// frame one byte short (and, past one chunk, right after the first
// chunk): the read must fail, not panic or return a short payload.
func TestCodecChunkBoundaries(t *testing.T) {
	for _, proto := range []uint8{VersionV1, Version} {
		for _, n := range codecCounts {
			data := randomBits(n, int64(n)+int64(proto))
			var reqFrame, respFrame bytes.Buffer
			if err := WriteRequest(&reqFrame, &Request{Op: OpForward, N: n, Accuracy: AccuracyNone, TraceID: 7, Proto: proto, Data: data}); err != nil {
				t.Fatal(err)
			}
			if err := WriteResponse(&respFrame, &Response{Status: StatusOK, Proto: proto, Data: data}); err != nil {
				t.Fatal(err)
			}

			req, err := ReadRequest(bytes.NewReader(reqFrame.Bytes()), n)
			if err != nil {
				t.Fatalf("v%d n=%d request: %v", proto, n, err)
			}
			if !sameBits(req.Data, data) || req.Proto != proto {
				t.Fatalf("v%d n=%d request payload or version changed in transit", proto, n)
			}
			resp, err := ReadResponse(bytes.NewReader(respFrame.Bytes()), n)
			if err != nil {
				t.Fatalf("v%d n=%d response: %v", proto, n, err)
			}
			if !sameBits(resp.Data, data) || resp.Proto != proto {
				t.Fatalf("v%d n=%d response payload or version changed in transit", proto, n)
			}
			Release(req.Data)
			Release(resp.Data)

			// A cut inside the payload is io.ErrUnexpectedEOF wherever it
			// falls, a chunk boundary included.
			cuts := []int{1}
			if n > chunkPoints {
				cuts = append(cuts, 16*(n-chunkPoints))
			}
			for _, cut := range cuts {
				short := reqFrame.Bytes()[:reqFrame.Len()-cut]
				if req, err := ReadRequest(bytes.NewReader(short), n); !errors.Is(err, io.ErrUnexpectedEOF) || req != nil {
					t.Fatalf("v%d n=%d request %d bytes short: req=%v err=%v", proto, n, cut, req != nil, err)
				}
				short = respFrame.Bytes()[:respFrame.Len()-cut]
				if resp, err := ReadResponse(bytes.NewReader(short), n); !errors.Is(err, io.ErrUnexpectedEOF) || resp != nil {
					t.Fatalf("v%d n=%d response %d bytes short: resp=%v err=%v", proto, n, cut, resp != nil, err)
				}
			}
		}
	}
}

// goldenData is the payload of the golden frames below.
var goldenData = []complex128{1, 2i, -3, complex(0.5, -0.25)}

// TestWireGolden pins the wire bytes: one request and one response in
// each protocol version must encode to the frames captured before the
// codec was chunked.
func TestWireGolden(t *testing.T) {
	const payload = "000000000000f03f00000000000000000000000000000000000000000000004000000000000008c00000000000000000000000000000e03f000000000000d0bf"
	for _, tc := range []struct {
		name  string
		write func(w io.Writer) error
		want  string
	}{
		{"request v1", func(w io.Writer) error { return WriteRequest(w, goldenRequest(VersionV1)) },
			"534f495301020000040000000000000002000000050000000400000018000000ffffffff0400000000000000" + payload},
		{"request v2", func(w io.Writer) error { return WriteRequest(w, goldenRequest(Version)) },
			"534f495302020000040000000000000002000000050000000400000018000000ffffffff0400000000000000efcdab8967452301" + payload},
		{"response v1", func(w io.Writer) error { return WriteResponse(w, goldenResponse(VersionV1)) },
			"534f495301020000190000000a000000040000000000000071756575652066756c6c" + payload},
		{"response v2", func(w io.Writer) error { return WriteResponse(w, goldenResponse(Version)) },
			"534f495302020000190000000a000000040000000000000071756575652066756c6c" + payload},
	} {
		var buf bytes.Buffer
		if err := tc.write(&buf); err != nil {
			t.Fatal(err)
		}
		if got := hex.EncodeToString(buf.Bytes()); got != tc.want {
			t.Errorf("%s:\n got %s\nwant %s", tc.name, got, tc.want)
		}
	}
}

func goldenRequest(proto uint8) *Request {
	return &Request{Op: OpInverse, N: 4, Segments: 2, Mu: 5, Nu: 4, Taps: 24, Accuracy: AccuracyNone,
		TraceID: 0x0123456789abcdef, Proto: proto, Data: goldenData}
}

func goldenResponse(proto uint8) *Response {
	return &Response{Status: StatusOverloaded, RetryAfter: 25 * time.Millisecond, Msg: "queue full",
		Proto: proto, Data: goldenData}
}

// FuzzReadFrame feeds arbitrary bytes to both frame readers. Neither may
// panic or return more than maxCount points, and a frame that parses
// must re-encode to the bytes it was read from. Header bytes 6 and 7
// are reserved in both frame kinds — ignored on read, zero on write —
// so they are cleared before the comparison.
func FuzzReadFrame(f *testing.F) {
	for _, proto := range []uint8{VersionV1, Version} {
		for _, data := range [][]complex128{nil, goldenData, randomBits(40, 1)} {
			var buf bytes.Buffer
			req := goldenRequest(proto)
			req.N, req.Data = len(data), data
			if err := WriteRequest(&buf, req); err != nil {
				f.Fatal(err)
			}
			f.Add(buf.Bytes())
			buf = bytes.Buffer{}
			resp := goldenResponse(proto)
			resp.Data = data
			if err := WriteResponse(&buf, resp); err != nil {
				f.Fatal(err)
			}
			f.Add(buf.Bytes())
		}
	}
	f.Fuzz(func(t *testing.T, frame []byte) {
		const maxCount = 64
		canonical := bytes.Clone(frame)
		if len(canonical) >= 8 {
			canonical[6], canonical[7] = 0, 0
		}
		var out bytes.Buffer
		if req, err := ReadRequest(bytes.NewReader(frame), maxCount); err == nil {
			if len(req.Data) > maxCount {
				t.Fatalf("request payload of %d points, limit %d", len(req.Data), maxCount)
			}
			if err := WriteRequest(&out, req); err != nil {
				t.Fatal(err)
			}
			if !bytes.HasPrefix(canonical, out.Bytes()) {
				t.Fatalf("request re-encodes to\n%x\nread from\n%x", out.Bytes(), frame)
			}
			Release(req.Data)
		}
		out.Reset()
		if resp, err := ReadResponse(bytes.NewReader(frame), maxCount); err == nil {
			if len(resp.Data) > maxCount {
				t.Fatalf("response payload of %d points, limit %d", len(resp.Data), maxCount)
			}
			if err := WriteResponse(&out, resp); err != nil {
				t.Fatal(err)
			}
			if !bytes.HasPrefix(canonical, out.Bytes()) {
				t.Fatalf("response re-encodes to\n%x\nread from\n%x", out.Bytes(), frame)
			}
			Release(resp.Data)
		}
	})
}
