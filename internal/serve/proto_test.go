package serve

import (
	"bytes"
	"errors"
	"math/rand"
	"net/http"
	"testing"

	"oclgemm/internal/matrix"
)

// fuzzMaxDim keeps the fuzzers' accepted requests small enough that a
// beta == 0 result slab stays in memory comfortably.
const fuzzMaxDim = 16

// requestFrame frames a valid request of count items.
func requestFrame(t testing.TB, h *Header, count int) []byte {
	rng := rand.New(rand.NewSource(1))
	na, nb, nc := payloadSizes(h)
	var buf bytes.Buffer
	var err error
	if h.Precision == "single" {
		err = encodeRequest(&buf, h, count, randSlice[float32](na*count, rng), randSlice[float32](nb*count, rng), randSlice[float32](nc*count, rng))
	} else {
		err = encodeRequest(&buf, h, count, randSlice[float64](na*count, rng), randSlice[float64](nb*count, rng), randSlice[float64](nc*count, rng))
	}
	if err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzDecodeRequest drives the server's one decode path — header
// validation, then the payload slabs — from raw bytes. It must never
// panic, a rejection must map to 400 or 413, and every accepted
// request's slabs must match its header.
func FuzzDecodeRequest(f *testing.F) {
	single := requestFrame(f, &Header{Precision: "double", M: 3, N: 2, K: 4, Alpha: 1.5, Beta: 0.25, TransB: true}, 1)
	batched := requestFrame(f, &Header{Precision: "single", M: 2, N: 3, K: 2, Alpha: 2, Count: 3}, 3)
	f.Add(single, false)
	f.Add(batched, true)
	f.Add(single[:len(single)-5], false)
	f.Add(batched[:len(batched)/2], true)
	f.Add(requestFrame(f, &Header{M: 16, N: 16, K: 1, Alpha: 1, Count: maxWireCount + 1}, 0), true)
	f.Add(requestFrame(f, &Header{M: fuzzMaxDim + 1, N: 1, K: 1, Alpha: 1}, 1), false)
	f.Add([]byte{0xff, 0xff, 0xff, 0xff}, false)
	f.Fuzz(func(t *testing.T, data []byte, batched bool) {
		r := bytes.NewReader(data)
		h, prec, code, err := readHeader(r, batched, fuzzMaxDim)
		if err != nil {
			if code != http.StatusBadRequest && code != http.StatusRequestEntityTooLarge {
				t.Fatalf("rejection %v mapped to status %d", err, code)
			}
			return
		}
		if !batched && h.Count != 1 {
			t.Fatalf("/v1/gemm header kept count %d", h.Count)
		}
		if prec == matrix.Double {
			checkDecode[float64](t, r, h)
		} else {
			checkDecode[float32](t, r, h)
		}
	})
}

// checkDecode decodes the payload of a validated header and checks the
// slabs against it.
func checkDecode[T matrix.Scalar](t *testing.T, r *bytes.Reader, h *Header) {
	sb, err := decodeRequest[T](r, h)
	if err != nil {
		if !errors.Is(err, errPayload) {
			t.Fatalf("payload error %v is not errPayload", err)
		}
		return
	}
	na, nb, _ := payloadSizes(h)
	if len(sb.A) != na*h.Count || len(sb.B) != nb*h.Count || len(sb.C) != h.M*h.N*h.Count {
		t.Fatalf("slabs %d/%d/%d for header %+v", len(sb.A), len(sb.B), len(sb.C), h)
	}
	if _, err := sb.Items(); err != nil {
		t.Fatalf("accepted request is not a valid batch: %v", err)
	}
}

// FuzzDecodeResponse feeds raw bytes to the client's response decoder:
// it must never panic, and a success must carry exactly the m×n
// result.
func FuzzDecodeResponse(f *testing.F) {
	const m, n = 3, 4
	var ok, failed bytes.Buffer
	if err := writeFrame(&ok, &RespHeader{OK: true, Path: "engine", BatchSize: 2}, floatsToBytes(make([]float64, m*n))); err != nil {
		f.Fatal(err)
	}
	if err := writeFrame(&failed, &RespHeader{Error: "overloaded"}); err != nil {
		f.Fatal(err)
	}
	f.Add(ok.Bytes())
	f.Add(ok.Bytes()[:ok.Len()-3])
	f.Add(failed.Bytes())
	f.Add([]byte{0, 0, 0, 2, '{', '}'})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		rh, cv, err := DecodeResponse[float64](bytes.NewReader(data), m, n)
		if err != nil {
			return
		}
		if rh.OK != (cv != nil) || (rh.OK && len(cv) != m*n) {
			t.Fatalf("header %+v with %d result elements", rh, len(cv))
		}
	})
}
