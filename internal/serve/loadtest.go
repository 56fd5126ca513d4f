package serve

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"oclgemm/internal/blas"
	"oclgemm/internal/matrix"
)

// LoadShape is one problem size in a load run's shape mix.
type LoadShape struct {
	M, N, K int
	// Single selects float32 (default float64).
	Single bool
	// Beta selects C ← αAB + βC with a client-supplied C (0 = no C
	// payload).
	Beta float64
	// Count > 1 sends the shape as one strided batch of Count items to
	// /v1/gemm/batched (0 or 1 = a single /v1/gemm request).
	Count int
}

// LoadOptions configures RunLoad.
type LoadOptions struct {
	// BaseURL is the server under test, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// Clients is the number of concurrent client goroutines (0 = 64).
	Clients int
	// RequestsPerClient is each client's request count (0 = 8).
	RequestsPerClient int
	// Tenants cycles client i onto Tenants[i % len] (nil = three
	// tenants "alpha"/"bravo"/"charlie").
	Tenants []string
	// HogTenant, when set, makes every client of that tenant send
	// oversized-volume requests back-to-back so the quota sheds it.
	HogTenant string
	// HogDim is the hog's cubic problem dimension (0 = 48).
	HogDim int
	// Shapes is the honest clients' shape mix (nil = a default mix of
	// four shapes across both precisions).
	Shapes []LoadShape
	// Seed makes the run reproducible.
	Seed int64
}

// LoadResult aggregates a load run.
type LoadResult struct {
	Requests  int64 // requests sent
	OK        int64 // 200s
	Shed      int64 // 429s
	Errors    int64 // transport failures or unexpected statuses
	Wrong     int64 // 200s whose result did not verify
	Coalesced int64 // 200s that shared a batch with another request
	BatchedOK int64 // verified 200s that were strided-batched requests
	// ShedByTenant counts 429s per tenant.
	ShedByTenant map[string]int64
	// OKByTenant counts 200s per tenant.
	OKByTenant map[string]int64
	// MaxHonestLatency is the slowest verified-OK request of any
	// non-hog tenant.
	MaxHonestLatency time.Duration
}

func (r *LoadResult) String() string {
	return fmt.Sprintf("requests=%d ok=%d shed=%d errors=%d wrong=%d coalesced=%d batched=%d max_honest_latency=%v",
		r.Requests, r.OK, r.Shed, r.Errors, r.Wrong, r.Coalesced, r.BatchedOK, r.MaxHonestLatency)
}

// defaultShapes is the honest mix: four shapes, both precisions.
func defaultShapes() []LoadShape {
	return []LoadShape{
		{M: 8, N: 8, K: 4},
		{M: 16, N: 8, K: 8, Beta: 0.5},
		{M: 8, N: 24, K: 4, Single: true},
		{M: 13, N: 19, K: 11},
	}
}

// RunLoad drives a serve.Server with concurrent multi-tenant clients
// and verifies every successful response against the pure-Go BLAS
// reference: bit-exact for float64 (the simulated kernel accumulates
// in k-order exactly like blas.GEMM), within matrix.Tolerance for
// float32. It is the acceptance harness behind the serve tests and
// `gemmserve -selfcheck`.
func RunLoad(opts LoadOptions) (*LoadResult, error) {
	if opts.BaseURL == "" {
		return nil, fmt.Errorf("serve: RunLoad needs a BaseURL")
	}
	if opts.Clients <= 0 {
		opts.Clients = 64
	}
	if opts.RequestsPerClient <= 0 {
		opts.RequestsPerClient = 8
	}
	if len(opts.Tenants) == 0 {
		opts.Tenants = []string{"alpha", "bravo", "charlie"}
	}
	if opts.HogDim <= 0 {
		opts.HogDim = 48
	}
	shapes := opts.Shapes
	if len(shapes) == 0 {
		shapes = defaultShapes()
	}
	url := strings.TrimRight(opts.BaseURL, "/") + "/v1/gemm"
	client := &http.Client{Timeout: 60 * time.Second}

	res := &LoadResult{
		ShedByTenant: make(map[string]int64),
		OKByTenant:   make(map[string]int64),
	}
	var mu sync.Mutex // guards the maps and MaxHonestLatency
	var wg sync.WaitGroup
	var firstErr atomic.Value

	for ci := 0; ci < opts.Clients; ci++ {
		tenant := opts.Tenants[ci%len(opts.Tenants)]
		wg.Add(1)
		go func(ci int, tenant string) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(opts.Seed + int64(ci)*7919))
			hog := tenant == opts.HogTenant
			for ri := 0; ri < opts.RequestsPerClient; ri++ {
				sh := shapes[(ci+ri)%len(shapes)]
				if hog {
					sh = LoadShape{M: opts.HogDim, N: opts.HogDim, K: opts.HogDim}
				}
				start := time.Now()
				var ok, shed, wrong, coalesced bool
				var err error
				if sh.Single {
					ok, shed, wrong, coalesced, err = doRequest[float32](client, url, tenant, sh, rng)
				} else {
					ok, shed, wrong, coalesced, err = doRequest[float64](client, url, tenant, sh, rng)
				}
				atomic.AddInt64(&res.Requests, 1)
				switch {
				case err != nil:
					atomic.AddInt64(&res.Errors, 1)
					firstErr.CompareAndSwap(nil, err)
				case shed:
					atomic.AddInt64(&res.Shed, 1)
					mu.Lock()
					res.ShedByTenant[tenant]++
					mu.Unlock()
				case ok:
					atomic.AddInt64(&res.OK, 1)
					if coalesced {
						atomic.AddInt64(&res.Coalesced, 1)
					}
					if wrong {
						atomic.AddInt64(&res.Wrong, 1)
					} else if sh.Count > 1 {
						atomic.AddInt64(&res.BatchedOK, 1)
					}
					mu.Lock()
					res.OKByTenant[tenant]++
					if !hog {
						if l := time.Since(start); l > res.MaxHonestLatency {
							res.MaxHonestLatency = l
						}
					}
					mu.Unlock()
				}
			}
		}(ci, tenant)
	}
	wg.Wait()
	if e := firstErr.Load(); e != nil {
		return res, fmt.Errorf("serve: load run saw transport errors (first: %w)", e.(error))
	}
	return res, nil
}

// doRequest sends one request — Count 1 to /v1/gemm, a strided batch
// of sh.Count items to /v1/gemm/batched — and verifies every item of
// the result against the pure-Go reference. Returns (ok200, shed429,
// wrong, coalesced, transportErr).
func doRequest[T matrix.Scalar](client *http.Client, url, tenant string, sh LoadShape, rng *rand.Rand) (ok, shed, wrong, coalesced bool, err error) {
	count := max(sh.Count, 1)
	h := &Header{M: sh.M, N: sh.N, K: sh.K, Alpha: 1.25, Beta: sh.Beta, Count: count}
	if elemSize[T]() == 4 {
		h.Precision = "single"
	} else {
		h.Precision = "double"
	}
	if count > 1 {
		url += "/batched"
	}
	na, nb, nc := payloadSizes(h)
	a := randSlice[T](na*count, rng)
	b := randSlice[T](nb*count, rng)
	c := randSlice[T](nc*count, rng)

	var body bytes.Buffer
	if err := EncodeBatchedRequest(&body, h, a, b, c); err != nil {
		return false, false, false, false, err
	}
	req, err := http.NewRequest(http.MethodPost, url, &body)
	if err != nil {
		return false, false, false, false, err
	}
	req.Header.Set("X-Tenant", tenant)
	resp, err := client.Do(req)
	if err != nil {
		return false, false, false, false, err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusTooManyRequests:
		_, _ = io.Copy(io.Discard, resp.Body)
		return false, true, false, false, nil
	default:
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return false, false, false, false, fmt.Errorf("unexpected status %d: %s", resp.StatusCode, msg)
	}
	rh, got, err := DecodeResponse[T](resp.Body, sh.M*count, sh.N)
	if err != nil {
		return false, false, false, false, err
	}
	if !rh.OK {
		return false, false, false, false, fmt.Errorf("200 with ok=false: %s", rh.Error)
	}
	if count > 1 && rh.Count != count {
		return false, false, false, false, fmt.Errorf("response count %d, want %d", rh.Count, count)
	}

	// Reference: every item through the pure-Go oracle.
	for i := 0; i < count && !wrong; i++ {
		am := matrix.FromSlice(sh.M, sh.K, matrix.RowMajor, a[i*na:(i+1)*na])
		bm := matrix.FromSlice(sh.K, sh.N, matrix.RowMajor, b[i*nb:(i+1)*nb])
		cm := matrix.FromSlice(sh.M, sh.N, matrix.RowMajor, make([]T, sh.M*sh.N))
		if nc > 0 {
			copy(cm.Data, c[i*nc:(i+1)*nc])
		}
		blas.GEMM(blas.NoTrans, blas.NoTrans, T(h.Alpha), am, bm, T(h.Beta), cm)
		wrong = !verify(got[i*sh.M*sh.N:(i+1)*sh.M*sh.N], cm, sh.K)
	}
	return true, false, wrong, rh.BatchSize > 1, nil
}

// verify compares the wire result against the reference: bit-exact for
// float64, within tolerance for float32 (its kernels reorder
// accumulation).
func verify[T matrix.Scalar](got []T, want *matrix.Matrix[T], k int) bool {
	m, n := want.Rows, want.Cols
	if len(got) != m*n {
		return false
	}
	tol := 0.0
	if elemSize[T]() == 4 {
		tol = matrix.Tolerance(matrix.Single, k)
	}
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			g, w := float64(got[i*n+j]), float64(want.At(i, j))
			if tol == 0 {
				if g != w {
					return false
				}
				continue
			}
			den := math.Max(math.Abs(w), 1)
			if math.Abs(g-w)/den > tol {
				return false
			}
		}
	}
	return true
}

func randSlice[T matrix.Scalar](n int, rng *rand.Rand) []T {
	out := make([]T, n)
	for i := range out {
		out[i] = T(rng.Float64()*2 - 1)
	}
	return out
}
