// Package serve is the GEMM-as-a-service front-end: an HTTP server
// that turns the execution engine (warm plans, batch API, pool
// scheduler) into a multi-tenant daemon. It coalesces concurrent
// same-shape small requests onto shared warm plans, enforces
// per-tenant token quotas and queue-depth backpressure with
// load-shedding (429 + Retry-After), routes large problems across the
// device pool, and exposes /metrics and /healthz from the obs layer.
// See DESIGN.md §12 and cmd/gemmserve.
package serve

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"

	"oclgemm/internal/batch"
	"oclgemm/internal/blas"
	"oclgemm/internal/matrix"
)

// Wire format of POST /v1/gemm and /v1/gemm/batched (request and
// response bodies share it):
//
//	uint32 big-endian: JSON header length
//	JSON header (Header on the way in, RespHeader on the way out)
//	binary operand payloads, row-major, little-endian IEEE 754
//
// Request payloads, in order: A (opA source shape), B, and — only when
// beta != 0 — C (m×n). A successful response carries one payload, the
// m×n result C. Operand element width follows Header.Precision.

// Header is the JSON control block of one GEMM request:
// C ← alpha·op(A)·op(B) + beta·C.
type Header struct {
	// Precision is "double" (float64) or "single" (float32).
	Precision string `json:"precision"`
	// TransA/TransB select op(X) = Xᵀ. The binary payload always holds
	// the matrix as stored: A is m×k when transA is false, k×m when
	// true (B likewise k×n / n×k).
	TransA bool `json:"transA,omitempty"`
	TransB bool `json:"transB,omitempty"`
	// M, N, K are the problem dimensions of op(A)·op(B).
	M int `json:"m"`
	N int `json:"n"`
	K int `json:"k"`
	// Alpha and Beta are the GEMM scalars. When Beta == 0 the request
	// body carries no C payload (BLAS semantics: C is not read).
	Alpha float64 `json:"alpha"`
	Beta  float64 `json:"beta,omitempty"`
	// DeadlineMS is the per-request execution deadline in milliseconds
	// (0 = the server default). Expired requests return 504.
	DeadlineMS int `json:"deadline_ms,omitempty"`
	// Count, on POST /v1/gemm/batched, is the number of same-shape
	// multiplications in the strided batch: the payloads become
	// contiguous slabs of Count operands each (A slab, B slab, and a C
	// slab when beta != 0), and the response carries the Count·m·n
	// result slab. POST /v1/gemm treats every request as Count 1.
	Count int `json:"count,omitempty"`
}

// RespHeader is the JSON control block of a response.
type RespHeader struct {
	OK bool `json:"ok"`
	// Error is the failure detail when OK is false.
	Error string `json:"error,omitempty"`
	// Path reports how the request executed: "engine" (coalesced onto
	// the shared single-device engine) or "pool" (partitioned across
	// the device pool).
	Path string `json:"path,omitempty"`
	// BatchSize is how many requests shared the coalesced batch this
	// one executed in (1 = alone; engine path only).
	BatchSize int `json:"batch_size,omitempty"`
	// Count echoes the strided-batch item count of a /v1/gemm/batched
	// response (the result payload holds Count·m·n elements).
	Count int `json:"count,omitempty"`
	// ElapsedMS is the server-side execution time in milliseconds.
	ElapsedMS float64 `json:"elapsed_ms,omitempty"`
}

// errPayload marks malformed-payload errors (mapped to 400).
var errPayload = errors.New("serve: bad payload")

// elemSize is the wire width of T in bytes.
func elemSize[T matrix.Scalar]() int {
	var zero T
	if _, ok := any(zero).(float32); ok {
		return 4
	}
	return 8
}

// precisionOf parses Header.Precision.
func precisionOf(s string) (matrix.Precision, error) {
	switch s {
	case "double", "float64", "":
		return matrix.Double, nil
	case "single", "float32":
		return matrix.Single, nil
	}
	return 0, fmt.Errorf("unknown precision %q (want \"double\" or \"single\")", s)
}

// opShape returns the stored shape of an operand given its logical op
// dimensions and transpose flag.
func opShape(rows, cols int, trans bool) (r, c int) {
	if trans {
		return cols, rows
	}
	return rows, cols
}

// payloadSizes returns the expected request payload element counts.
func payloadSizes(h *Header) (na, nb, nc int) {
	ar, ac := opShape(h.M, h.K, h.TransA)
	br, bc := opShape(h.K, h.N, h.TransB)
	na, nb = ar*ac, br*bc
	if h.Beta != 0 {
		nc = h.M * h.N
	}
	return
}

// floatsToBytes encodes vals row-major little-endian.
func floatsToBytes[T matrix.Scalar](vals []T) []byte {
	switch v := any(vals).(type) {
	case []float64:
		out := make([]byte, 8*len(v))
		for i, x := range v {
			binary.LittleEndian.PutUint64(out[8*i:], math.Float64bits(x))
		}
		return out
	case []float32:
		out := make([]byte, 4*len(v))
		for i, x := range v {
			binary.LittleEndian.PutUint32(out[4*i:], math.Float32bits(x))
		}
		return out
	}
	return nil
}

// decodeFloats fills dst from little-endian raw, which holds exactly
// len(dst) elements.
func decodeFloats[T matrix.Scalar](dst []T, raw []byte) {
	switch d := any(dst).(type) {
	case []float64:
		for i := range d {
			d[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
		}
	case []float32:
		for i := range d {
			d[i] = math.Float32frombits(binary.LittleEndian.Uint32(raw[4*i:]))
		}
	}
}

// payloadChunk bounds one read of a payload. The reader grows its
// result only as bytes arrive, so a header that promises more than the
// body holds costs at most a chunk, not the promised size.
const payloadChunk = 64 << 10

// readElems reads n little-endian elements from r in bounded chunks.
func readElems[T matrix.Scalar](r io.Reader, n int) ([]T, error) {
	esz := elemSize[T]()
	buf := make([]byte, min(n*esz, payloadChunk))
	out := make([]T, 0, min(n, payloadChunk/esz))
	for len(out) < n {
		k := min(n-len(out), len(buf)/esz)
		if _, err := io.ReadFull(r, buf[:k*esz]); err != nil {
			return nil, err
		}
		if len(out)+k > cap(out) {
			// Double, but never past what the header promised.
			out = append(make([]T, 0, min(n, 2*cap(out)+k)), out...)
		}
		out = out[:len(out)+k]
		decodeFloats(out[len(out)-k:], buf)
	}
	return out, nil
}

// writeFrame writes one length-prefixed JSON header followed by the
// payloads.
func writeFrame(w io.Writer, hdr any, payloads ...[]byte) error {
	js, err := json.Marshal(hdr)
	if err != nil {
		return err
	}
	var lb [4]byte
	binary.BigEndian.PutUint32(lb[:], uint32(len(js)))
	if _, err := w.Write(lb[:]); err != nil {
		return err
	}
	if _, err := w.Write(js); err != nil {
		return err
	}
	for _, p := range payloads {
		if _, err := w.Write(p); err != nil {
			return err
		}
	}
	return nil
}

// maxHeaderBytes bounds the JSON control block of a frame.
const maxHeaderBytes = 1 << 16

// readFrameHeader reads the length-prefixed JSON header into hdr.
func readFrameHeader(r io.Reader, hdr any) error {
	var lb [4]byte
	if _, err := io.ReadFull(r, lb[:]); err != nil {
		return fmt.Errorf("reading header length: %w", err)
	}
	n := binary.BigEndian.Uint32(lb[:])
	if n == 0 || n > maxHeaderBytes {
		return fmt.Errorf("header length %d out of range (1..%d)", n, maxHeaderBytes)
	}
	js := make([]byte, n)
	if _, err := io.ReadFull(r, js); err != nil {
		return fmt.Errorf("reading %d-byte header: %w", n, err)
	}
	if err := json.Unmarshal(js, hdr); err != nil {
		return fmt.Errorf("decoding header: %w", err)
	}
	return nil
}

// maxWireCount bounds a /v1/gemm/batched item count (with MaxDim it
// also bounds the work one request may ask for).
const maxWireCount = 4096

// readHeader reads and validates a request frame's header, returning
// the HTTP status a rejection maps to. On /v1/gemm (batched false)
// Count is forced to 1; on /v1/gemm/batched it must be 1..maxWireCount.
func readHeader(body io.Reader, batched bool, maxDim int) (*Header, matrix.Precision, int, error) {
	var h Header
	if err := readFrameHeader(body, &h); err != nil {
		return nil, 0, http.StatusBadRequest, err
	}
	switch {
	case !batched:
		h.Count = 1
	case h.Count <= 0:
		return nil, 0, http.StatusBadRequest, fmt.Errorf("batched request needs a positive count, got %d", h.Count)
	case h.Count > maxWireCount:
		return nil, 0, http.StatusRequestEntityTooLarge, fmt.Errorf("count %d exceeds max %d", h.Count, maxWireCount)
	}
	if h.M <= 0 || h.N <= 0 || h.K <= 0 {
		return nil, 0, http.StatusBadRequest, fmt.Errorf("non-positive dimensions %dx%dx%d", h.M, h.N, h.K)
	}
	if h.M > maxDim || h.N > maxDim || h.K > maxDim {
		return nil, 0, http.StatusRequestEntityTooLarge, fmt.Errorf("dimensions %dx%dx%d exceed max %d", h.M, h.N, h.K, maxDim)
	}
	prec, err := precisionOf(h.Precision)
	if err != nil {
		return nil, 0, http.StatusBadRequest, err
	}
	return &h, prec, 0, nil
}

// decodeRequest reads the operand slabs a validated header promises
// and describes the request as a strided batch of h.Count items (a
// single GEMM is Count 1). Without a C payload (beta == 0) the C slab
// is allocated zeroed once the body has arrived.
func decodeRequest[T matrix.Scalar](body io.Reader, h *Header) (*batch.Strided[T], error) {
	na, nb, nc := payloadSizes(h)
	an, bn, cn := na*h.Count, nb*h.Count, nc*h.Count
	slab, err := readElems[T](body, an+bn+cn)
	if err != nil {
		return nil, fmt.Errorf("%w: body holds fewer than the %d payload bytes the header promises: %v",
			errPayload, (an+bn+cn)*elemSize[T](), err)
	}
	c := slab[an+bn:]
	if cn == 0 {
		c = make([]T, h.M*h.N*h.Count)
	}
	ta, tb := blas.NoTrans, blas.NoTrans
	if h.TransA {
		ta = blas.Trans
	}
	if h.TransB {
		tb = blas.Trans
	}
	return &batch.Strided[T]{
		TransA: ta, TransB: tb,
		Alpha: T(h.Alpha), Beta: T(h.Beta),
		M: h.M, N: h.N, K: h.K,
		Order: matrix.RowMajor,
		A:     slab[:an:an], StrideA: na,
		B: slab[an : an+bn : an+bn], StrideB: nb,
		C: c, StrideC: h.M * h.N,
		Count: h.Count,
	}, nil
}

// EncodeRequest frames one GEMM request for POST /v1/gemm: a, b (and c
// when h.Beta != 0) are the operand elements, row-major in their
// stored shapes. The client half of the protocol; the load harness and
// examples use it.
func EncodeRequest[T matrix.Scalar](w io.Writer, h *Header, a, b, c []T) error {
	return encodeRequest(w, h, 1, a, b, c)
}

// EncodeBatchedRequest frames one strided-batched request for POST
// /v1/gemm/batched: a and b are contiguous slabs of h.Count operands
// each (and c likewise when h.Beta != 0), row-major in their stored
// per-item shapes.
func EncodeBatchedRequest[T matrix.Scalar](w io.Writer, h *Header, a, b, c []T) error {
	if h.Count <= 0 {
		return fmt.Errorf("batched request needs a positive count, got %d", h.Count)
	}
	return encodeRequest(w, h, h.Count, a, b, c)
}

// encodeRequest checks the slabs of count items against h and frames
// them.
func encodeRequest[T matrix.Scalar](w io.Writer, h *Header, count int, a, b, c []T) error {
	na, nb, nc := payloadSizes(h)
	na, nb, nc = na*count, nb*count, nc*count
	if len(a) != na || len(b) != nb {
		return fmt.Errorf("operand sizes %d/%d, want %d/%d", len(a), len(b), na, nb)
	}
	if len(c) != nc {
		return fmt.Errorf("C payload %d elements, want %d (beta=%v, count=%d)", len(c), nc, h.Beta, count)
	}
	payloads := [][]byte{floatsToBytes(a), floatsToBytes(b)}
	if nc > 0 {
		payloads = append(payloads, floatsToBytes(c))
	}
	return writeFrame(w, h, payloads...)
}

// DecodeBatchedResponse reads a framed /v1/gemm/batched response: the
// header plus the count·m·n result slab when it reports success.
func DecodeBatchedResponse[T matrix.Scalar](r io.Reader, m, n, count int) (*RespHeader, []T, error) {
	return DecodeResponse[T](r, m*count, n)
}

// DecodeResponse reads a framed response: the header, plus the m×n
// result payload when the header reports success.
func DecodeResponse[T matrix.Scalar](r io.Reader, m, n int) (*RespHeader, []T, error) {
	var rh RespHeader
	if err := readFrameHeader(r, &rh); err != nil {
		return nil, nil, err
	}
	if !rh.OK {
		return &rh, nil, nil
	}
	cv, err := readElems[T](r, m*n)
	if err != nil {
		return nil, nil, fmt.Errorf("reading %d-byte result: %w", m*n*elemSize[T](), err)
	}
	return &rh, cv, nil
}
