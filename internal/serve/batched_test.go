package serve

import (
	"bytes"
	"context"
	"io"
	"math"
	"math/rand"
	"net/http"
	"testing"

	"oclgemm/internal/batch"
	"oclgemm/internal/blas"
	"oclgemm/internal/device"
	"oclgemm/internal/gemmimpl"
	"oclgemm/internal/matrix"
	"oclgemm/internal/obs"
)

// postBatched sends one framed strided-batch request and returns the
// raw response.
func postBatched[T matrix.Scalar](t *testing.T, url, tenant string, h *Header, a, b, c []T) *http.Response {
	t.Helper()
	var body bytes.Buffer
	if err := EncodeBatchedRequest(&body, h, a, b, c); err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, url+"/v1/gemm/batched", &body)
	if err != nil {
		t.Fatal(err)
	}
	if tenant != "" {
		req.Header.Set("X-Tenant", tenant)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// batchedRoundTrip posts one batch and verifies every item against the
// pure-Go oracle, returning the response header. With a non-nil eng
// the response slab must also be bit-identical to the same slabs run
// through eng's strided path.
func batchedRoundTrip[T matrix.Scalar](t *testing.T, url string, eng *gemmimpl.Engine, h *Header, rng *rand.Rand) *RespHeader {
	t.Helper()
	na, nb, nc := payloadSizes(h)
	a := randSlice[T](na*h.Count, rng)
	b := randSlice[T](nb*h.Count, rng)
	c := randSlice[T](nc*h.Count, rng)
	resp := postBatched(t, url, "", h, a, b, c)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		t.Fatalf("status %d: %s", resp.StatusCode, msg)
	}
	rh, got, err := DecodeBatchedResponse[T](resp.Body, h.M, h.N, h.Count)
	if err != nil {
		t.Fatal(err)
	}
	if !rh.OK {
		t.Fatalf("ok=false: %s", rh.Error)
	}
	if rh.Count != h.Count {
		t.Fatalf("response count %d, want %d", rh.Count, h.Count)
	}
	for i := 0; i < h.Count; i++ {
		am := matrix.FromSlice(h.M, h.K, matrix.RowMajor, a[i*na:(i+1)*na])
		bm := matrix.FromSlice(h.K, h.N, matrix.RowMajor, b[i*nb:(i+1)*nb])
		var cm *matrix.Matrix[T]
		if nc > 0 {
			cm = matrix.FromSlice(h.M, h.N, matrix.RowMajor, append([]T(nil), c[i*nc:(i+1)*nc]...))
		} else {
			cm = matrix.New[T](h.M, h.N, matrix.RowMajor)
		}
		blas.GEMM(blas.NoTrans, blas.NoTrans, T(h.Alpha), am, bm, T(h.Beta), cm)
		if !verify(got[i*h.M*h.N:(i+1)*h.M*h.N], cm, h.K) {
			t.Fatalf("item %d of %d did not verify", i, h.Count)
		}
	}
	if eng != nil {
		want := make([]T, h.M*h.N*h.Count)
		copy(want, c)
		sb := &batch.Strided[T]{
			Alpha: T(h.Alpha), Beta: T(h.Beta),
			M: h.M, N: h.N, K: h.K, Order: matrix.RowMajor,
			A: a, StrideA: na, B: b, StrideB: nb, C: want, StrideC: h.M * h.N,
			Count: h.Count,
		}
		if err := gemmimpl.EngineRunStridedCtx(context.Background(), eng, sb); err != nil {
			t.Fatal(err)
		}
		for i, v := range got {
			if math.Float64bits(float64(v)) != math.Float64bits(float64(want[i])) {
				t.Fatalf("slab element %d: served %v, engine %v — not bit-identical", i, v, want[i])
			}
		}
	}
	return rh
}

func TestBatchedEndpointVerifies(t *testing.T) {
	s, ts := newTestServer(t, Config{QuotaMflopRate: -1})
	rng := rand.New(rand.NewSource(42))
	// Double with beta (C slab on the wire), single without.
	rh := batchedRoundTrip[float64](t, ts.URL, s.e64, &Header{Precision: "double", M: 8, N: 8, K: 4, Alpha: 1.25, Beta: 0.5, Count: 6}, rng)
	if rh.Path != "engine" {
		t.Errorf("path %q, want engine", rh.Path)
	}
	batchedRoundTrip[float32](t, ts.URL, s.e32, &Header{Precision: "single", M: 5, N: 7, K: 3, Alpha: 2, Count: 9}, rng)
}

func TestBatchedPoolRouting(t *testing.T) {
	// A tiny LargeFlops threshold sends even a small batch's total
	// volume to the pool (one member — the testDB only tunes tahiti).
	_, ts := newTestServer(t, Config{
		Pool: true, PoolDevices: []*device.Spec{device.Tahiti()},
		LargeFlops: 1, QuotaMflopRate: -1,
	})
	rng := rand.New(rand.NewSource(7))
	rh := batchedRoundTrip[float64](t, ts.URL, nil, &Header{Precision: "double", M: 8, N: 8, K: 4, Alpha: 1, Beta: 0.25, Count: 8}, rng)
	if rh.Path != "pool" {
		t.Errorf("path %q, want pool", rh.Path)
	}
}

// TestServePoolSingleRequest covers the single-request pool route: a
// /v1/gemm request over the large-problem threshold comes back from
// the pool bit-exact, tile-partitioned (sched.tile spans) rather than
// run as a one-item batch (sched.batch.item).
func TestServePoolSingleRequest(t *testing.T) {
	tr := obs.NewTracer(0)
	_, ts := newTestServer(t, Config{
		Pool: true, PoolDevices: []*device.Spec{device.Tahiti()},
		LargeFlops: 1, QuotaMflopRate: -1, Trace: tr,
	})
	m, n, k := 13, 9, 7
	h := &Header{Precision: "double", M: m, N: n, K: k, Alpha: 1.5, Beta: 0.5}
	rng := rand.New(rand.NewSource(17))
	na, nb, nc := payloadSizes(h)
	a, b, c := randSlice[float64](na, rng), randSlice[float64](nb, rng), randSlice[float64](nc, rng)
	resp := postGEMM(t, ts.URL, "", h, a, b, c)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		t.Fatalf("status %d: %s", resp.StatusCode, msg)
	}
	rh, got, err := DecodeResponse[float64](resp.Body, m, n)
	if err != nil {
		t.Fatal(err)
	}
	if rh.Path != "pool" {
		t.Fatalf("path %q, want pool", rh.Path)
	}
	want := matrix.FromSlice(m, n, matrix.RowMajor, append([]float64(nil), c...))
	blas.GEMM(blas.NoTrans, blas.NoTrans, 1.5, matrix.FromSlice(m, k, matrix.RowMajor, a),
		matrix.FromSlice(k, n, matrix.RowMajor, b), 0.5, want)
	if !verify(got, want, k) {
		t.Fatal("pool result is not bit-exact against blas.GEMM")
	}
	spans := map[string]int{}
	for _, sp := range tr.Snapshot() {
		spans[sp.Name]++
	}
	if spans["sched.tile"] == 0 || spans["sched.batch.item"] != 0 {
		t.Fatalf("sched.tile/sched.batch.item spans = %d/%d, want >0/0", spans["sched.tile"], spans["sched.batch.item"])
	}
}

func TestBatchedRejectsBadCounts(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	rng := rand.New(rand.NewSource(1))
	// Count 0 (encoder refuses it, so frame by hand via /v1/gemm header
	// with count=0 posted to the batched endpoint).
	var body bytes.Buffer
	h := &Header{Precision: "double", M: 4, N: 4, K: 4, Alpha: 1}
	if err := EncodeRequest(&body, h, randSlice[float64](16, rng), randSlice[float64](16, rng), nil); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/gemm/batched", "application/octet-stream", &body)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("count=0: status %d, want 400", resp.StatusCode)
	}
	// Count over the wire bound.
	body.Reset()
	h.Count = maxWireCount + 1
	if err := writeFrame(&body, h); err != nil {
		t.Fatal(err)
	}
	resp, err = http.Post(ts.URL+"/v1/gemm/batched", "application/octet-stream", &body)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized count: status %d, want 413", resp.StatusCode)
	}
}

func TestBatchedQuotaChargesFullBatch(t *testing.T) {
	// Burst covers ~40 single 8x8x4 items (0.0005 Mflop each) but the
	// batch charges all of them at once: a 4096-item... use a burst that
	// one item clears and 64 items do not.
	item := blas.FlopCount(8, 8, 4) / 1e6
	_, ts := newTestServer(t, Config{QuotaMflopRate: 0.001, QuotaMflopBurst: item * 8})
	rng := rand.New(rand.NewSource(3))
	h := &Header{Precision: "double", M: 8, N: 8, K: 4, Alpha: 1, Count: 64}
	na, nb, _ := payloadSizes(h)
	resp := postBatched(t, ts.URL, "greedy", h, randSlice[float64](na*64, rng), randSlice[float64](nb*64, rng), nil)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("64-item batch against an 8-item burst: status %d, want 429", resp.StatusCode)
	}
	// The same shape as a small batch fits.
	h.Count = 4
	resp = postBatched(t, ts.URL, "modest", h, randSlice[float64](na*4, rng), randSlice[float64](nb*4, rng), nil)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("4-item batch within burst: status %d, want 200", resp.StatusCode)
	}
}

// TestBatchedAcceptanceLoad is the acceptance gate for the batched
// serve path: a concurrent multi-tenant load with strided batches in
// the mix must verify every result (0 wrong) and the plan cache must
// serve warm (hits ≫ misses — one build per shape, everything after a
// hit).
func TestBatchedAcceptanceLoad(t *testing.T) {
	s, ts := newTestServer(t, Config{QuotaMflopRate: -1})
	res, err := RunLoad(LoadOptions{
		BaseURL: ts.URL, Clients: 12, RequestsPerClient: 6, Seed: 99,
		Shapes: []LoadShape{
			{M: 8, N: 8, K: 4, Count: 16},
			{M: 8, N: 8, K: 4, Beta: 0.5},
			{M: 5, N: 7, K: 3, Single: true, Count: 8},
			{M: 13, N: 9, K: 6, Beta: 1.5, Count: 4},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("load: %v", res)
	if res.Wrong != 0 {
		t.Errorf("%d wrong results, want 0", res.Wrong)
	}
	if res.BatchedOK == 0 {
		t.Error("no verified batched responses")
	}
	if res.OK == 0 {
		t.Error("no successful responses at all")
	}
	snap := s.Metrics().Snapshot()
	hits := snap.Counters["gemm.plan.hit"]
	misses := snap.Counters["gemm.plan.miss"]
	if misses == 0 || hits < 4*misses {
		t.Errorf("plan cache hits=%d misses=%d, want hits >= 4x misses", hits, misses)
	}
}
