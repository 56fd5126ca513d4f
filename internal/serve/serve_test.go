package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"oclgemm/internal/blas"
	"oclgemm/internal/codegen"
	"oclgemm/internal/matrix"
	"oclgemm/internal/obs"
	"oclgemm/internal/tunedb"
)

// testDB builds a tuning database with deliberately small work-group
// parameters for both precisions so simulated GEMMs stay fast under
// -race.
func testDB() *tunedb.DB {
	db := &tunedb.DB{Version: tunedb.FormatVersion}
	for _, prec := range []matrix.Precision{matrix.Single, matrix.Double} {
		p := codegen.Params{
			Precision: prec, Algorithm: codegen.BA,
			Mwg: 8, Nwg: 8, Kwg: 4,
			MdimC: 4, NdimC: 4, MdimA: 4, NdimB: 4,
			Kwi: 2, VectorWidth: 1,
			SharedA: true, SharedB: true,
			LayoutA: matrix.LayoutCBL, LayoutB: matrix.LayoutCBL,
		}
		db.Put(tunedb.FromParams("tahiti", p, 0, 0, "test"))
	}
	return db
}

// newTestServer starts a serve.Server on an httptest listener. Each
// tweak adjusts the server (say, its batcher's window) before it
// serves.
func newTestServer(t *testing.T, cfg Config, tweaks ...func(*Server)) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.DB == nil {
		cfg.DB = testDB()
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, tw := range tweaks {
		tw(s)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

// postGEMM sends one framed request and returns the raw response.
func postGEMM[T matrix.Scalar](t *testing.T, url, tenant string, h *Header, a, b, c []T) *http.Response {
	t.Helper()
	var body bytes.Buffer
	if err := EncodeRequest(&body, h, a, b, c); err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, url+"/v1/gemm", &body)
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

func TestProtoRoundTrip(t *testing.T) {
	h := &Header{Precision: "double", M: 3, N: 2, K: 4, Alpha: 1.5, Beta: 0.25, TransB: true}
	na, nb, nc := payloadSizes(h)
	if na != 12 || nb != 8 || nc != 6 {
		t.Fatalf("payloadSizes = %d/%d/%d, want 12/8/6", na, nb, nc)
	}
	rng := rand.New(rand.NewSource(1))
	a, b, c := randSlice[float64](na, rng), randSlice[float64](nb, rng), randSlice[float64](nc, rng)

	var buf bytes.Buffer
	if err := EncodeRequest(&buf, h, a, b, c); err != nil {
		t.Fatal(err)
	}
	var got Header
	if err := readFrameHeader(&buf, &got); err != nil {
		t.Fatal(err)
	}
	if got != *h {
		t.Fatalf("header round-trip: got %+v, want %+v", got, *h)
	}
	av, err := readElems[float64](&buf, na)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if av[i] != a[i] {
			t.Fatalf("payload A[%d] = %v, want %v", i, av[i], a[i])
		}
	}

	// Response side.
	buf.Reset()
	rh := &RespHeader{OK: true, Path: "engine", BatchSize: 3}
	if err := writeFrame(&buf, rh, floatsToBytes(c)); err != nil {
		t.Fatal(err)
	}
	gotRH, cv, err := DecodeResponse[float64](&buf, h.M, h.N)
	if err != nil {
		t.Fatal(err)
	}
	if *gotRH != *rh {
		t.Fatalf("resp header round-trip: got %+v, want %+v", gotRH, rh)
	}
	for i := range c {
		if cv[i] != c[i] {
			t.Fatalf("result[%d] = %v, want %v", i, cv[i], c[i])
		}
	}
}

func TestProtoRejectsBadFrames(t *testing.T) {
	var h Header
	if err := readFrameHeader(strings.NewReader("xy"), &h); err == nil {
		t.Fatal("short length prefix accepted")
	}
	// A length prefix beyond maxHeaderBytes.
	if err := readFrameHeader(bytes.NewReader([]byte{0xff, 0xff, 0xff, 0xff}), &h); err == nil {
		t.Fatal("oversized header length accepted")
	}
	if _, err := precisionOf("half"); err == nil {
		t.Fatal("unknown precision accepted")
	}
}

func TestAdmissionQueueDepth(t *testing.T) {
	ad := newAdmission(1, 1, 2, nil)
	if !ad.enter() || !ad.enter() {
		t.Fatal("admission rejected within bound")
	}
	if ad.enter() {
		t.Fatal("admission accepted past maxQueue")
	}
	ad.leave()
	if !ad.enter() {
		t.Fatal("admission rejected after leave freed a slot")
	}
}

func TestAdmissionQuota(t *testing.T) {
	ad := newAdmission(100, 50, 10, nil) // 100 Mflop/s, 50 Mflop burst
	now := time.Unix(1000, 0)
	if ok, _ := ad.admit(ad.tenant("t"), 40, now); !ok {
		t.Fatal("burst-covered request shed")
	}
	ok, retry := ad.admit(ad.tenant("t"), 40, now)
	if ok {
		t.Fatal("over-quota request admitted")
	}
	// 10 tokens remain; 30 more needed at 100/s = 300ms.
	if retry < 250*time.Millisecond || retry > 350*time.Millisecond {
		t.Fatalf("Retry-After = %v, want ~300ms", retry)
	}
	// After the advertised wait the same request is admitted.
	if ok, _ := ad.admit(ad.tenant("t"), 40, now.Add(retry)); !ok {
		t.Fatal("request shed after waiting out Retry-After")
	}
	// Other tenants are unaffected throughout.
	if ok, _ := ad.admit(ad.tenant("u"), 40, now); !ok {
		t.Fatal("independent tenant shed by another tenant's quota")
	}
}

func TestServeBasicCorrectness(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	m, n, k := 13, 9, 7
	h := &Header{Precision: "double", M: m, N: n, K: k, Alpha: 1.5, Beta: 0.5}
	rng := rand.New(rand.NewSource(7))
	na, nb, nc := payloadSizes(h)
	a, b, c := randSlice[float64](na, rng), randSlice[float64](nb, rng), randSlice[float64](nc, rng)

	resp := postGEMM(t, ts.URL, "tenant-a", h, a, b, c)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		t.Fatalf("status %d: %s", resp.StatusCode, msg)
	}
	rh, got, err := DecodeResponse[float64](resp.Body, m, n)
	if err != nil {
		t.Fatal(err)
	}
	if !rh.OK || rh.Path != "engine" {
		t.Fatalf("resp header %+v, want ok engine", rh)
	}

	am := matrix.FromSlice(m, k, matrix.RowMajor, a)
	bm := matrix.FromSlice(k, n, matrix.RowMajor, b)
	cm := matrix.FromSlice(m, n, matrix.RowMajor, append([]float64(nil), c...))
	blas.GEMM(blas.NoTrans, blas.NoTrans, 1.5, am, bm, 0.5, cm)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			if got[i*n+j] != cm.At(i, j) {
				t.Fatalf("C[%d,%d] = %v, want %v (bit-exact)", i, j, got[i*n+j], cm.At(i, j))
			}
		}
	}
}

func TestServeTransposedSingle(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	m, n, k := 10, 6, 9
	h := &Header{Precision: "single", M: m, N: n, K: k, Alpha: 2, TransA: true}
	rng := rand.New(rand.NewSource(11))
	na, nb, _ := payloadSizes(h)
	a, b := randSlice[float32](na, rng), randSlice[float32](nb, rng)

	resp := postGEMM(t, ts.URL, "", h, a, b, nil)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		t.Fatalf("status %d: %s", resp.StatusCode, msg)
	}
	_, got, err := DecodeResponse[float32](resp.Body, m, n)
	if err != nil {
		t.Fatal(err)
	}

	am := matrix.FromSlice(k, m, matrix.RowMajor, a) // stored kxm, op = transpose
	bm := matrix.FromSlice(k, n, matrix.RowMajor, b)
	cm := matrix.New[float32](m, n, matrix.RowMajor)
	blas.GEMM(blas.Trans, blas.NoTrans, 2, am, bm, 0, cm)
	if !verify(got, cm, k) {
		t.Fatal("transposed single-precision result out of tolerance")
	}
}

func TestServeRejectsBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxDim: 64})
	post := func(body []byte) int {
		resp, err := http.Post(ts.URL+"/v1/gemm", "application/octet-stream", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		_, _ = io.Copy(io.Discard, resp.Body)
		return resp.StatusCode
	}
	frame := func(h *Header) []byte {
		var buf bytes.Buffer
		if err := writeFrame(&buf, h); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}

	if code := post([]byte("not a frame")); code != http.StatusBadRequest {
		t.Fatalf("garbage frame: status %d, want 400", code)
	}
	if code := post(frame(&Header{M: 0, N: 4, K: 4})); code != http.StatusBadRequest {
		t.Fatalf("zero dimension: status %d, want 400", code)
	}
	if code := post(frame(&Header{M: 65, N: 4, K: 4, Alpha: 1})); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized dimension: status %d, want 413", code)
	}
	if code := post(frame(&Header{Precision: "half", M: 4, N: 4, K: 4, Alpha: 1})); code != http.StatusBadRequest {
		t.Fatalf("unknown precision: status %d, want 400", code)
	}
	// Header promises payloads the body does not carry.
	if code := post(frame(&Header{M: 4, N: 4, K: 4, Alpha: 1})); code != http.StatusBadRequest {
		t.Fatalf("truncated payload: status %d, want 400", code)
	}
}

func TestServeDeadline(t *testing.T) {
	// A long coalescing window guarantees the 1ms deadline expires
	// while the request waits in its batch group.
	_, ts := newTestServer(t, Config{}, func(s *Server) { s.bat.window = 150 * time.Millisecond })
	h := &Header{M: 8, N: 8, K: 4, Alpha: 1, DeadlineMS: 1}
	rng := rand.New(rand.NewSource(3))
	na, nb, _ := payloadSizes(h)
	resp := postGEMM(t, ts.URL, "", h, randSlice[float64](na, rng), randSlice[float64](nb, rng), nil)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		msg, _ := io.ReadAll(resp.Body)
		t.Fatalf("status %d (%s), want 504", resp.StatusCode, msg)
	}
}

func TestServeCoalescing(t *testing.T) {
	s, ts := newTestServer(t, Config{}, func(s *Server) {
		s.bat.window, s.bat.maxBatch = 40*time.Millisecond, 64
	})
	const clients = 8
	m, n, k := 8, 8, 4
	var wg sync.WaitGroup
	sizes := make([]int, clients)
	for ci := 0; ci < clients; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(ci)))
			h := &Header{M: m, N: n, K: k, Alpha: 1}
			na, nb, _ := payloadSizes(h)
			resp := postGEMM(t, ts.URL, fmt.Sprintf("t%d", ci%3), h,
				randSlice[float64](na, rng), randSlice[float64](nb, rng), nil)
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("client %d: status %d", ci, resp.StatusCode)
				return
			}
			rh, _, err := DecodeResponse[float64](resp.Body, m, n)
			if err != nil {
				t.Error(err)
				return
			}
			sizes[ci] = rh.BatchSize
		}(ci)
	}
	wg.Wait()
	maxSize := 0
	for _, sz := range sizes {
		if sz > maxSize {
			maxSize = sz
		}
	}
	if maxSize < 2 {
		t.Fatalf("no coalescing across %d concurrent same-shape requests (batch sizes %v)", clients, sizes)
	}
	snap := s.Metrics().Snapshot()
	if snap.Counters["serve.batch.coalesced"] == 0 {
		t.Fatal("serve.batch.coalesced stayed 0")
	}
	// One shape: exactly one plan build, the rest hits.
	if hits, misses := snap.Counters["gemm.plan.hit"], snap.Counters["gemm.plan.miss"]; misses != 1 || hits < int64(clients-1) {
		t.Fatalf("plan cache hit/miss = %d/%d, want %d+/1", hits, misses, clients-1)
	}
}

// Each status the server writes bumps its own serve.responses series,
// resolved once in New.
func TestResponseCountersPerCode(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	codes := []int{200, 400, 413, 429, 500, 503, 504}
	for i, code := range codes {
		s.countResponse(code)
		for j, other := range codes {
			want := int64(0)
			if j <= i {
				want = 1
			}
			c := s.reg.Counter(obs.Label("serve.responses", "code", strconv.Itoa(other)))
			if got := c.Value(); got != want {
				t.Fatalf("after counting %d: serve.responses{code=%d} = %d, want %d", code, other, got, want)
			}
		}
	}
}

func TestServeHealthAndMetricsEndpoints(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz status %d", resp.StatusCode)
	}
	var h healthResponse
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Device != "tahiti" {
		t.Fatalf("healthz %+v", h)
	}

	mr, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mr.Body.Close()
	var snap map[string]any
	if err := json.NewDecoder(mr.Body).Decode(&snap); err != nil {
		t.Fatalf("/metrics is not JSON: %v", err)
	}
}

func TestServeDrain(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	h := &Header{M: 8, N: 8, K: 4, Alpha: 1}
	rng := rand.New(rand.NewSource(5))
	na, nb, _ := payloadSizes(h)
	resp := postGEMM(t, ts.URL, "", h, randSlice[float64](na, rng), randSlice[float64](nb, rng), nil)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-drain status %d, want 503", resp.StatusCode)
	}
	hr, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer hr.Body.Close()
	if hr.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-drain /healthz status %d, want 503", hr.StatusCode)
	}
}

// TestServeLoadAcceptance is the issue's acceptance scenario: 64
// concurrent clients across four tenants (one a quota hog), four
// shapes in both precisions, zero wrong results, plan reuse, the hog
// shed with 429s while honest tenants stay unshed and bounded.
func TestServeLoadAcceptance(t *testing.T) {
	if testing.Short() {
		t.Skip("load test")
	}
	s, ts := newTestServer(t, Config{
		// Honest shapes cost ~0.005 Mflop each; the hog's 48^3 costs
		// ~0.22 Mflop. Burst 4 Mflop covers a whole honest tenant's run
		// but only ~18 hog requests.
		QuotaMflopRate:  1,
		QuotaMflopBurst: 4,
	}, func(s *Server) { s.bat.window = 2 * time.Millisecond })
	res, err := RunLoad(LoadOptions{
		BaseURL:           ts.URL,
		Clients:           64,
		RequestsPerClient: 8,
		Tenants:           []string{"alpha", "bravo", "charlie", "hog"},
		HogTenant:         "hog",
		HogDim:            48,
		Seed:              42,
	})
	if err != nil {
		t.Fatalf("%v (result: %v)", err, res)
	}
	t.Logf("load: %v", res)
	if res.Wrong != 0 {
		t.Fatalf("%d wrong results", res.Wrong)
	}
	if res.OK == 0 {
		t.Fatal("no successful requests")
	}
	if res.ShedByTenant["hog"] == 0 {
		t.Fatal("quota hog was never shed")
	}
	for _, tn := range []string{"alpha", "bravo", "charlie"} {
		if res.ShedByTenant[tn] != 0 {
			t.Fatalf("honest tenant %s shed %d times", tn, res.ShedByTenant[tn])
		}
		if res.OKByTenant[tn] != 16*8 {
			t.Fatalf("honest tenant %s completed %d/%d requests", tn, res.OKByTenant[tn], 16*8)
		}
	}
	if res.MaxHonestLatency > 10*time.Second {
		t.Fatalf("honest latency ballooned to %v", res.MaxHonestLatency)
	}

	snap := s.Metrics().Snapshot()
	hits, misses := snap.Counters["gemm.plan.hit"], snap.Counters["gemm.plan.miss"]
	if hits < 10*misses {
		t.Fatalf("plan reuse too low: hit=%d miss=%d", hits, misses)
	}
	if snap.Counters["serve.shed.quota"] == 0 {
		t.Fatal("serve.shed.quota stayed 0")
	}

	// Clean drain with nothing in flight.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestTenantTableBounded sends 10 000 distinct X-Tenant names: the
// tenant table and its serve.requests{tenant=...} series stop at
// maxTenants plus the shared "other", and a request from yet another
// new name is still served.
func TestTenantTableBounded(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	for i := 0; i < 10000; i++ {
		req := httptest.NewRequest(http.MethodPost, "/v1/gemm", strings.NewReader("not a frame"))
		req.Header.Set("X-Tenant", fmt.Sprintf("tenant-%d", i))
		s.Handler().ServeHTTP(httptest.NewRecorder(), req)
	}
	snap := s.Metrics().Snapshot()
	series := 0
	for name := range snap.Counters {
		if strings.HasPrefix(name, "serve.requests{tenant=") {
			series++
		}
	}
	if series > maxTenants+1 {
		t.Fatalf("%d serve.requests tenant series, want at most %d", series, maxTenants+1)
	}
	if got, want := snap.Counters["serve.requests{tenant=other}"], int64(10000-maxTenants); got != want {
		t.Fatalf("serve.requests{tenant=other} = %d, want %d", got, want)
	}

	h := &Header{M: 8, N: 8, K: 4, Alpha: 1}
	rng := rand.New(rand.NewSource(9))
	na, nb, _ := payloadSizes(h)
	resp := postGEMM(t, ts.URL, "tenant-late", h, randSlice[float64](na, rng), randSlice[float64](nb, rng), nil)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		t.Fatalf("request past the tenant cap: status %d (%s), want 200", resp.StatusCode, msg)
	}
}

// TestServeShortBodyAllocatesWhatArrives posts a quota-admitted header
// that promises ≈134 MB of payload (M=N=4096, K=1, beta≠0) with an
// empty and with a short body: each is a 400, and the server allocates
// in step with the bytes that arrived, not the bytes promised.
func TestServeShortBodyAllocatesWhatArrives(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	hdr := &Header{Precision: "double", M: 4096, N: 4096, K: 1, Alpha: 1, Beta: 1}
	for _, sent := range []int{0, 1000} {
		var body bytes.Buffer
		if err := writeFrame(&body, hdr, make([]byte, sent)); err != nil {
			t.Fatal(err)
		}
		req := httptest.NewRequest(http.MethodPost, "/v1/gemm", &body)
		rec := httptest.NewRecorder()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		s.Handler().ServeHTTP(rec, req)
		runtime.ReadMemStats(&after)
		if rec.Code != http.StatusBadRequest {
			t.Fatalf("%d-byte body: status %d (%s), want 400", sent, rec.Code, rec.Body)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
			t.Fatalf("%d-byte body: handler allocated %d bytes, want < 1 MiB", sent, grew)
		}
	}
}
