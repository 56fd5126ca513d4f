package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"oclgemm"
	"oclgemm/internal/blas"
	"oclgemm/internal/matrix"
	"oclgemm/internal/obs"
	"oclgemm/internal/serve"
)

// serveClients is the closed-loop client count: one goroutine and at
// most one connection each, two but never more than the host's cores.
var serveClients = min(2, runtime.NumCPU())

// serveKind is one request kind: a single /v1/gemm request, or a
// /v1/gemm/batched request of count items.
type serveKind struct {
	name           string
	single         bool
	transA, transB bool
	m, n, k        int
	beta           float64
	count          int
}

var serveKinds = []serveKind{
	{name: "d16-nn", m: 16, n: 16, k: 16},
	{name: "d32x24x32-tn-beta", transA: true, m: 32, n: 24, k: 32, beta: 0.5},
	{name: "d8x32x24-nn", m: 8, n: 32, k: 24},
	{name: "s32-nn", single: true, m: 32, n: 32, k: 32},
	{name: "s20x28x12-nt-beta", single: true, transB: true, m: 20, n: 28, k: 12, beta: 0.5},
	{name: "d16-batched-x16", m: 16, n: 16, k: 16, count: 16},
	{name: "s24-batched-x16-beta", single: true, m: 24, n: 24, k: 24, beta: 0.5, count: 16},
}

const (
	// serveSegment is how many consecutive completions make one
	// throughput segment (about half a second of traffic).
	serveSegment = 250
	serveAlpha   = 1.25
	// serveSets seeded payload sets per kind and client are cycled.
	serveSets = 4
)

// serveOp is one client's view of a kind: its payload sets, their
// references, and the request it sends.
type serveOp interface {
	kind() *serveKind
	// do sends the next payload set and checks the reply outside the
	// timer; proto is the client-side encode plus decode time.
	do(c *http.Client, url, tenant string, corrupt bool) (lat, proto float64, err error)
	flops() float64
	// direct runs the current payload set through the library routines
	// in-process, the engine rung of the ladder.
	direct(sys *mixSystem) error
}

type serveSet[T matrix.Scalar] struct {
	a, b, c, want []T
}

type serveOpT[T matrix.Scalar] struct {
	k    *serveKind
	sets []serveSet[T]
	cur  int
}

func newServeOp[T matrix.Scalar](k *serveKind, rng *rand.Rand) *serveOpT[T] {
	o := &serveOpT[T]{k: k}
	items := max(k.count, 1)
	ar, ac := stored(k.m, k.k, trans(k.transA))
	br, bc := stored(k.k, k.n, trans(k.transB))
	fill := func(n int) []T {
		s := make([]T, n)
		for i := range s {
			s[i] = T(2*rng.Float64() - 1)
		}
		return s
	}
	for s := 0; s < serveSets; s++ {
		st := serveSet[T]{a: fill(items * ar * ac), b: fill(items * br * bc)}
		if k.beta != 0 {
			st.c = fill(items * k.m * k.n)
		}
		st.want = make([]T, items*k.m*k.n)
		for i := 0; i < items; i++ {
			w := matrix.FromSlice(k.m, k.n, matrix.RowMajor, st.want[i*k.m*k.n:(i+1)*k.m*k.n])
			if st.c != nil {
				copy(w.Data, st.c[i*k.m*k.n:])
			}
			blas.GEMM(trans(k.transA), trans(k.transB), T(serveAlpha),
				matrix.FromSlice(ar, ac, matrix.RowMajor, st.a[i*ar*ac:(i+1)*ar*ac]),
				matrix.FromSlice(br, bc, matrix.RowMajor, st.b[i*br*bc:(i+1)*br*bc]),
				T(k.beta), w)
		}
		o.sets = append(o.sets, st)
	}
	return o
}

func trans(t bool) blas.Transpose {
	if t {
		return blas.Trans
	}
	return blas.NoTrans
}

func (o *serveOpT[T]) kind() *serveKind { return o.k }

func (o *serveOpT[T]) flops() float64 {
	return float64(max(o.k.count, 1)) * blas.FlopCount(o.k.m, o.k.n, o.k.k)
}

func (o *serveOpT[T]) header() *serve.Header {
	h := &serve.Header{Precision: "double", TransA: o.k.transA, TransB: o.k.transB,
		M: o.k.m, N: o.k.n, K: o.k.k, Alpha: serveAlpha, Beta: o.k.beta, Count: o.k.count}
	if isSingle[T]() {
		h.Precision = "single"
	}
	return h
}

func (o *serveOpT[T]) do(client *http.Client, url, tenant string, corrupt bool) (lat, proto float64, err error) {
	o.cur = (o.cur + 1) % len(o.sets)
	st := &o.sets[o.cur]
	h := o.header()
	start := time.Now()
	var body bytes.Buffer
	if o.k.count > 0 {
		err = serve.EncodeBatchedRequest(&body, h, st.a, st.b, st.c)
		url += "/batched"
	} else {
		err = serve.EncodeRequest(&body, h, st.a, st.b, st.c)
	}
	proto = since(start)
	if err != nil {
		return since(start), proto, err
	}
	got, protoDec, err := post[T](client, url, tenant, &body, o.k.m*max(o.k.count, 1), o.k.n)
	lat, proto = since(start), proto+protoDec
	if err != nil {
		return lat, proto, err
	}
	if corrupt {
		got[0]++
	}
	return lat, proto, sameSlice(got, st.want, o.k.k)
}

// post sends one framed request and decodes the reply's rows×cols
// result, returning the decode time separately.
func post[T matrix.Scalar](client *http.Client, url, tenant string, body io.Reader, rows, cols int) ([]T, float64, error) {
	req, err := http.NewRequest(http.MethodPost, url, body)
	if err != nil {
		return nil, 0, err
	}
	req.Header.Set("X-Tenant", tenant)
	resp, err := client.Do(req)
	if err != nil {
		return nil, 0, err
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, 0, fmt.Errorf("status %d: %.200s", resp.StatusCode, raw)
	}
	start := time.Now()
	rh, got, err := serve.DecodeResponse[T](bytes.NewReader(raw), rows, cols)
	dec := since(start)
	if err != nil {
		return nil, dec, err
	}
	if !rh.OK {
		return nil, dec, fmt.Errorf("ok=false: %s", rh.Error)
	}
	return got, dec, nil
}

// sameSlice compares a wire result with its reference: bit-exact for
// float64, within matrix.Tolerance for float32.
func sameSlice[T matrix.Scalar](got, want []T, k int) error {
	if len(got) != len(want) {
		return fmt.Errorf("%w: %d result elements, want %d", errWrong, len(got), len(want))
	}
	tol := 0.0
	if isSingle[T]() {
		tol = matrix.Tolerance(matrix.Single, k)
	}
	for i := range want {
		g, w := float64(got[i]), float64(want[i])
		if d := math.Abs(g-w) / math.Max(1, math.Max(math.Abs(g), math.Abs(w))); d > tol {
			return fmt.Errorf("%w: element %d = %v, want %v (tolerance %g)", errWrong, i, g, w, tol)
		}
	}
	return nil
}

func (o *serveOpT[T]) direct(sys *mixSystem) error {
	st := &o.sets[o.cur]
	k := o.k
	g := sys.d
	if isSingle[T]() {
		g = sys.s
	}
	ar, ac := stored(k.m, k.k, trans(k.transA))
	br, bc := stored(k.k, k.n, trans(k.transB))
	c := make([]T, len(st.want))
	copy(c, st.c)
	if k.count > 0 {
		sb := &oclgemm.StridedBatch[T]{
			TransA: trans(k.transA), TransB: trans(k.transB), Alpha: T(serveAlpha), Beta: T(k.beta),
			M: k.m, N: k.n, K: k.k, Order: matrix.RowMajor,
			A: st.a, StrideA: ar * ac, B: st.b, StrideB: br * bc, C: c, StrideC: k.m * k.n, Count: k.count,
		}
		return oclgemm.GEMMStridedBatched(g, sb)
	}
	return oclgemm.Run(g, trans(k.transA), trans(k.transB), T(serveAlpha),
		matrix.FromSlice(ar, ac, matrix.RowMajor, st.a), matrix.FromSlice(br, bc, matrix.RowMajor, st.b),
		T(k.beta), matrix.FromSlice(k.m, k.n, matrix.RowMajor, c))
}

// newServeOps builds one client's payload sets from rng.
func newServeOps(rng *rand.Rand) []serveOp {
	ops := make([]serveOp, len(serveKinds))
	for i := range serveKinds {
		if serveKinds[i].single {
			ops[i] = newServeOp[float32](&serveKinds[i], rng)
		} else {
			ops[i] = newServeOp[float64](&serveKinds[i], rng)
		}
	}
	return ops
}

// serveSystem is the server under test on a loopback listener, plus
// the clients' transport.
type serveSystem struct {
	srv    *serve.Server
	hs     *http.Server
	done   chan struct{}
	url    string
	tr     *http.Transport
	client *http.Client
}

// startServe starts serve.New's handler (wrapped by wrap when set) on a
// loopback port. Quotas keep their defaults, far above this traffic, and
// the pool is off.
func startServe(reg *obs.Registry, wrap func(http.Handler) http.Handler) (*serveSystem, error) {
	srv, err := serve.New(serve.Config{Device: mixDevice, Metrics: reg})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	h := srv.Handler()
	if wrap != nil {
		h = wrap(h)
	}
	s := &serveSystem{srv: srv, hs: &http.Server{Handler: h}, done: make(chan struct{}),
		url: "http://" + ln.Addr().String() + "/v1/gemm"}
	go func() {
		defer close(s.done)
		_ = s.hs.Serve(ln) // returns http.ErrServerClosed after Shutdown
	}()
	s.tr = &http.Transport{MaxConnsPerHost: serveClients, MaxIdleConnsPerHost: serveClients, DisableCompression: true}
	s.client = &http.Client{Transport: s.tr, Timeout: 60 * time.Second}
	return s, nil
}

// close stops the listener, waits for its goroutine, drains and closes
// the server.
func (s *serveSystem) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	s.tr.CloseIdleConnections()
	_ = s.hs.Shutdown(ctx)
	<-s.done
	_ = s.srv.Drain(ctx)
	s.srv.Close()
}

// setupServe starts a server and warms every plan with one checked
// request per kind and client.
func setupServe(clients [][]serveOp, reg *obs.Registry, wrap func(http.Handler) http.Handler) (*serveSystem, error) {
	sys, err := startServe(reg, wrap)
	if err != nil {
		return nil, err
	}
	for ci, ops := range clients {
		for _, op := range ops {
			if _, _, err := op.do(sys.client, sys.url, tenant(ci), false); err != nil {
				sys.close()
				return nil, fmt.Errorf("warm-up %s: %w", op.kind().name, err)
			}
		}
	}
	return sys, nil
}

func tenant(client int) string { return fmt.Sprintf("client-%d", client) }

// servePhase runs the closed loop: each client sends whole decks of
// requests in its own seeded order, waiting for every reply, until the
// phase's wall time has passed. proto returns the clients' summed
// encode + decode seconds.
func servePhase(cfg *config, rng *rand.Rand, clients [][]serveOp, sys *serveSystem, seconds float64) (ph *phase, proto float64) {
	ph = &phase{runs: make([]int, len(serveKinds))}
	recs := make([]recorder, len(clients))
	protos := make([]float64, len(clients))
	runs := make([][]int, len(clients))
	done := make([][]completion, len(clients))
	seeds := make([]int64, len(clients))
	for i := range seeds {
		seeds[i] = rng.Int63()
	}
	var corrupt atomic.Bool
	corrupt.Store(cfg.takeCorrupt())
	mem := startMem()
	start := time.Now()
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	var wg sync.WaitGroup
	for ci := range clients {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			crng := rand.New(rand.NewSource(seeds[ci]))
			runs[ci] = make([]int, len(serveKinds))
			for {
				for _, i := range crng.Perm(len(clients[ci])) {
					op := clients[ci][i]
					lat, p, err := op.do(sys.client, sys.url, tenant(ci), corrupt.CompareAndSwap(true, false))
					recs[ci].op(lat, op.flops(), err)
					c := completion{at: since(start), lat: lat}
					if err == nil {
						c.flops = op.flops()
					}
					done[ci] = append(done[ci], c)
					protos[ci] += p
					runs[ci][i]++
				}
				if !time.Now().Before(deadline) {
					return
				}
			}
		}(ci)
	}
	wg.Wait()
	ph.rec.timed = since(start)
	ph.alloc, ph.retained = mem.end()
	for ci := range clients {
		ph.rec.merge(&recs[ci])
		proto += protos[ci]
		for i, n := range runs[ci] {
			ph.runs[i] += n
		}
	}
	ph.rec.segs, ph.rec.lat = segmentsOf(done)
	return ph, proto
}

// completion is one request's end, seconds into the phase, its latency
// and its useful flops (0 when it failed).
type completion struct{ at, lat, flops float64 }

// segmentsOf merges the clients' completions in time order and cuts
// them into whole segments of serveSegment requests, each timed from
// the previous segment's last completion to its own. It also returns
// every latency in completion order.
func segmentsOf(clients [][]completion) ([]segment, []float64) {
	var all []completion
	for _, c := range clients {
		all = append(all, c...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].at < all[j].at })
	lat := make([]float64, len(all))
	for i, c := range all {
		lat[i] = c.lat
	}
	var segs []segment
	prev := 0.0
	for lo := 0; lo+serveSegment <= len(all); lo += serveSegment {
		s := segment{secs: all[lo+serveSegment-1].at - prev}
		for _, c := range all[lo : lo+serveSegment] {
			if c.flops > 0 {
				s.ok++
				s.flops += c.flops
			}
		}
		prev = all[lo+serveSegment-1].at
		segs = append(segs, s)
	}
	return segs, lat
}

func newServeClients(rng *rand.Rand) [][]serveOp {
	clients := make([][]serveOp, serveClients)
	for ci := range clients {
		clients[ci] = newServeOps(rng)
	}
	return clients
}

func runServe(cfg *config) (*outcome, error) {
	rng := rand.New(rand.NewSource(cfg.seed))
	env, err := newMixEnv()
	if err != nil {
		return nil, err
	}
	clients := newServeClients(rng)
	if !cfg.trace {
		var sys *serveSystem
		var setups []float64
		for i := 0; i < cfg.setupRuns(); i++ {
			if sys != nil {
				sys.close()
			}
			start := time.Now()
			if sys, err = setupServe(clients, nil, nil); err != nil {
				return nil, err
			}
			setups = append(setups, since(start))
		}
		ph, _ := servePhase(cfg, rng, clients, sys, cfg.seconds)
		sys.close()
		return &outcome{endToEnd(setups, ph, env.modelBest()), ph.rec.attempted, ph.rec.failed, ph.rec.firstFail}, nil
	}

	sys, err := setupServe(clients, nil, nil)
	if err != nil {
		return nil, err
	}
	plain, _ := servePhase(cfg, rng, clients, sys, cfg.seconds/2)
	sys.close()

	reg := obs.NewRegistry()
	var handled, handlerNanos atomic.Int64
	wrap := func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			start := time.Now()
			h.ServeHTTP(w, r)
			handlerNanos.Add(int64(time.Since(start)))
			handled.Add(1)
		})
	}
	sys, err = setupServe(clients, reg, wrap)
	if err != nil {
		return nil, err
	}
	s0, h0, n0 := reg.Snapshot(), handlerNanos.Load(), handled.Load()
	traced, proto := servePhase(cfg, rng, clients, sys, cfg.seconds/2)
	s1, h1, n1 := reg.Snapshot(), handlerNanos.Load(), handled.Load()
	sys.close()

	ms := serveLayerMetrics(env, traced, proto, s0, s1, float64(h1-h0)/1e9, float64(n1-n0))
	direct, err := serveDirectGFlops(env, clients[0])
	if err != nil {
		return nil, err
	}
	ms = append(ms,
		metric{"ladder.serve_vs_engine", ratio(traced.rec.flops/traced.rec.timed/1e9, direct), "ratio",
			fmt.Sprintf("served GFlop/s (%d clients) / in-process routine GFlop/s (1 caller), same requests", serveClients)},
		metric{"bench.trace_overhead", ratio(quantile(traced.rec.lat, 0.5), quantile(plain.rec.lat, 0.5)), "ratio",
			"traced op_p50 / untraced op_p50 in this run"})
	all := plain.rec
	all.merge(&traced.rec)
	return &outcome{ms, all.attempted, all.failed, all.firstFail}, nil
}

func serveLayerMetrics(e *mixEnv, ph *phase, proto float64, s0, s1 obs.Snapshot, handler, handled float64) []metric {
	n := float64(max(ph.rec.attempted, 1))
	d := func(name string, sum bool) float64 { return delta(s0, s1, name, sum) }
	clientLat := 0.0
	for _, l := range ph.rec.lat {
		clientLat += l
	}
	handlerS := ratio(handler, handled)
	engineS := d("gemm.call.seconds", true) / n
	var useful, padded, kflops, bytes float64
	for i := range serveKinds {
		k := &serveKinds[i]
		im, esz := e.imD, 8
		if k.single {
			im, esz = e.imS, 4
		}
		u, p, b := padStats(im, k.m, k.n, k.k, k.beta, esz)
		items := float64(ph.runs[i] * max(k.count, 1))
		useful += items * u
		padded += items * p
		kflops += items * p
		bytes += items * b
	}
	ms := []metric{
		{"serve.handler_s", handlerS, "s/op", "timer around Handler().ServeHTTP"},
		{"serve.transport_s", clientLat/n - handlerS, "s/op", "derived: client latency minus handler time"},
		{"serve.engine_s", engineS, "s/op", "gemm.call.seconds under the server registry"},
		{"serve.overhead_s", handlerS - engineS, "s/op", "derived: handler minus engine (decode, admission, coalescing wait, encode)"},
		{"serve.proto_us", 1e6 * proto / n, "us/op", "client-side EncodeRequest + DecodeResponse"},
		{"serve.coalesce_ratio", ratio(d("serve.batch.coalesced", false), d("serve.requests", false)), "ratio", "requests that shared a batch / requests"},
		{"serve.batch_size_mean", ratio(d("serve.batch.size", true), d("serve.batch.size", false)), "count", "requests per coalesced batch"},
		{"serve.shed", d("serve.shed.queue", false) + d("serve.shed.quota", false), "count", "requests shed in the timed phase"},
		{"gemmimpl.pad_efficiency", ratio(useful, padded), "ratio", "computed: useful / padded flops of the requests"},
		{"kernels.flops_per_byte", ratio(kflops, bytes), "flop/B", "computed: padded flops / A, B, C bytes of the kernel phase"},
	}
	ms = append(ms, planHitRatio(s0, s1, "plan-cache hits / lookups"))
	return append(ms, engineLayerMetrics(s0, s1, n, "per request")...)
}

// serveDirectGFlops runs one client's requests through in-process
// routines on the server's kernels, one caller, warm plans: the useful
// GFlop/s the engine sustains on the same work without the service.
func serveDirectGFlops(e *mixEnv, ops []serveOp) (float64, error) {
	sys, err := newMixSystem(e, nil, nil)
	if err != nil {
		return 0, err
	}
	defer sys.close()
	const passes = 20
	var flops, secs float64
	for pass := 0; pass <= passes; pass++ {
		for _, op := range ops {
			start := time.Now()
			if err := op.direct(sys); err != nil {
				return 0, fmt.Errorf("direct %s: %w", op.kind().name, err)
			}
			if pass > 0 { // pass 0 builds the plans
				secs += since(start)
				flops += op.flops()
			}
		}
	}
	return flops / secs / 1e9, nil
}
