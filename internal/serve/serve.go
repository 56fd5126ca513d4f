package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"oclgemm/internal/batch"
	"oclgemm/internal/blas"
	"oclgemm/internal/device"
	"oclgemm/internal/gemmimpl"
	"oclgemm/internal/matrix"
	"oclgemm/internal/obs"
	"oclgemm/internal/sched"
	"oclgemm/internal/tunedb"
)

// Config parameterizes a Server. The zero value of every field selects
// a sensible default.
type Config struct {
	// Device is the single-device engine's processor ID (default
	// "tahiti", the paper's fastest).
	Device string
	// DB supplies tuned kernels per (device, precision); nil selects
	// the paper's Table II database with the nearest-device fallback.
	DB *tunedb.DB
	// Pool enables the multi-device path: requests of at least
	// LargeFlops flops are partitioned across PoolDevices (nil = the
	// paper's full Table I set) instead of coalescing onto the
	// single-device engine.
	Pool        bool
	PoolDevices []*device.Spec
	// LargeFlops is the pool-routing threshold in flops
	// (0 = DefaultLargeFlops). Ignored without Pool.
	LargeFlops float64
	// MaxQueue is the queue-depth shed bound: more than this many
	// requests in the building sheds new arrivals with 429
	// (0 = DefaultMaxQueue).
	MaxQueue int
	// QuotaMflopRate and QuotaMflopBurst set every tenant's token
	// bucket: capacity accrues at Rate Mflop/s up to Burst Mflop, and
	// each request costs its 2·m·n·k arithmetic volume in Mflop. Zero
	// selects DefaultQuotaRate/DefaultQuotaBurst; a negative Rate
	// disables quotas.
	QuotaMflopRate  float64
	QuotaMflopBurst float64
	// DefaultDeadline bounds requests that carry no deadline_ms
	// (0 = DefaultDeadline).
	DefaultDeadline time.Duration
	// MaxDim rejects requests with any dimension above it with 413
	// (0 = DefaultMaxDim).
	MaxDim int
	// Workers bounds per-launch work-group parallelism on the engines
	// (0 = GOMAXPROCS).
	Workers int
	// Metrics and Trace instrument the server and everything under it
	// (engines, pool, clsim). Nil Metrics allocates a private registry
	// so /metrics always works.
	Metrics *obs.Registry
	Trace   *obs.Tracer
}

// Defaults for Config's zero fields.
const (
	DefaultMaxQueue   = 256
	DefaultQuotaRate  = 2000.0 // Mflop/s per tenant
	DefaultQuotaBurst = 8000.0 // Mflop
	DefaultDeadline   = 30 * time.Second
	DefaultMaxDim     = 4096
	// DefaultLargeFlops routes problems of 256³ and up to the pool.
	DefaultLargeFlops = 2 * 256.0 * 256 * 256
)

// Server is the GEMM service: one concurrency-safe shared Engine per
// precision behind a coalescing batcher, admission control in front,
// and an optional device pool for large problems.
type Server struct {
	cfg  Config
	reg  *obs.Registry
	e32  *gemmimpl.Engine
	e64  *gemmimpl.Engine
	pool *sched.Pool
	adm  *admission
	bat  *batcher
	mux  *http.ServeMux

	draining atomic.Bool
	inflight sync.WaitGroup

	requests  *obs.Counter
	pathEng   *obs.Counter
	pathPool  *obs.Counter
	responses map[int]*obs.Counter // serve.responses{code=…} by status
}

// responseCodes are the statuses the server writes.
var responseCodes = [...]int{
	http.StatusOK, http.StatusBadRequest, http.StatusRequestEntityTooLarge,
	http.StatusTooManyRequests, http.StatusInternalServerError,
	http.StatusServiceUnavailable, http.StatusGatewayTimeout,
}

// New builds a server: the shared engines resolve their tuned kernels
// from the database (Table II by default, nearest-device fallback) for
// both precisions; the pool, when enabled, gets one engine pair per
// member.
func New(cfg Config) (*Server, error) {
	if cfg.Device == "" {
		cfg.Device = "tahiti"
	}
	if cfg.MaxQueue <= 0 {
		cfg.MaxQueue = DefaultMaxQueue
	}
	if cfg.QuotaMflopRate == 0 {
		cfg.QuotaMflopRate = DefaultQuotaRate
	}
	if cfg.QuotaMflopBurst <= 0 {
		cfg.QuotaMflopBurst = DefaultQuotaBurst
	}
	if cfg.DefaultDeadline <= 0 {
		cfg.DefaultDeadline = DefaultDeadline
	}
	if cfg.MaxDim <= 0 {
		cfg.MaxDim = DefaultMaxDim
	}
	if cfg.LargeFlops <= 0 {
		cfg.LargeFlops = DefaultLargeFlops
	}
	if cfg.Metrics == nil {
		cfg.Metrics = obs.NewRegistry()
	}
	db := cfg.DB
	if db == nil {
		db = tunedb.PaperTableII()
	}
	dev, err := device.ByID(cfg.Device)
	if err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}

	s := &Server{cfg: cfg, reg: cfg.Metrics}
	build := func(prec matrix.Precision) (*gemmimpl.Engine, error) {
		rec, _, err := tunedb.LookupOrFallback(db, dev, prec)
		if err != nil {
			return nil, err
		}
		params, err := rec.Params()
		if err != nil {
			return nil, err
		}
		im, err := gemmimpl.New(dev, params)
		if err != nil {
			return nil, err
		}
		im.SetWorkers(cfg.Workers)
		im.SetObservability(cfg.Metrics, cfg.Trace)
		return gemmimpl.NewEngine(im), nil
	}
	if s.e32, err = build(matrix.Single); err != nil {
		return nil, fmt.Errorf("serve: building single-precision engine for %s: %w", cfg.Device, err)
	}
	if s.e64, err = build(matrix.Double); err != nil {
		s.e32.Close()
		return nil, fmt.Errorf("serve: building double-precision engine for %s: %w", cfg.Device, err)
	}
	if cfg.Pool {
		devs := cfg.PoolDevices
		if len(devs) == 0 {
			devs = device.All()
		}
		s.pool, err = sched.New(sched.Options{
			Devices: devs, DB: db, Workers: cfg.Workers,
			Obs: cfg.Metrics, Trace: cfg.Trace,
		})
		if err != nil {
			s.e32.Close()
			s.e64.Close()
			return nil, fmt.Errorf("serve: building pool: %w", err)
		}
	}

	s.adm = newAdmission(cfg.QuotaMflopRate, cfg.QuotaMflopBurst, cfg.MaxQueue, cfg.Metrics)
	s.bat = newBatcher(cfg.Metrics)
	s.requests = cfg.Metrics.Counter("serve.requests")
	s.pathEng = cfg.Metrics.Counter("serve.path.engine")
	s.pathPool = cfg.Metrics.Counter("serve.path.pool")
	s.responses = make(map[int]*obs.Counter, len(responseCodes))
	for _, code := range responseCodes {
		s.responses[code] = cfg.Metrics.Counter(obs.Label("serve.responses", "code", strconv.Itoa(code)))
	}

	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/gemm", s.handleGEMM)
	s.mux.HandleFunc("POST /v1/gemm/batched", s.handleGEMM)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	return s, nil
}

// Handler returns the server's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Metrics returns the server's registry (the /metrics source).
func (s *Server) Metrics() *obs.Registry { return s.reg }

// Drain gracefully stops the server: new requests are rejected with
// 503, in-flight requests (including open coalescing windows) run to
// completion, bounded by ctx. Call before Close.
func (s *Server) Drain(ctx context.Context) error {
	s.draining.Store(true)
	done := make(chan struct{})
	go func() {
		s.inflight.Wait()
		s.bat.drain()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("serve: drain abandoned: %w", ctx.Err())
	}
}

// Close releases the engines and the pool. Callers should Drain first.
func (s *Server) Close() {
	s.e32.Close()
	s.e64.Close()
	if s.pool != nil {
		s.pool.Close()
	}
}

// tenantOf extracts the request's tenant (X-Tenant header).
func tenantOf(r *http.Request) string {
	if t := r.Header.Get("X-Tenant"); t != "" {
		return t
	}
	return "default"
}

// countResponse tallies serve.responses{code=...}; code is one of
// responseCodes.
func (s *Server) countResponse(code int) { s.responses[code].Inc() }

// fail writes a plain-JSON error response (no binary frame; clients
// detect it by the HTTP status).
func (s *Server) fail(w http.ResponseWriter, code int, format string, args ...any) {
	s.countResponse(code)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(map[string]any{"ok": false, "error": fmt.Sprintf(format, args...)})
}

// shed writes a 429 with the Retry-After hint.
func (s *Server) shed(w http.ResponseWriter, retry time.Duration, reason string) {
	w.Header().Set("Retry-After", strconv.FormatFloat(retry.Seconds(), 'f', 3, 64))
	s.fail(w, http.StatusTooManyRequests, "overloaded: %s (retry after %v)", reason, retry)
}

// handleGEMM serves POST /v1/gemm and POST /v1/gemm/batched through
// one pipeline: admission, header validation, the tenant's quota for
// the whole request's volume, decode, execute (coalesced engine batch
// or pool), and the framed result. A /v1/gemm request is a strided
// batch of Count 1.
func (s *Server) handleGEMM(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		s.fail(w, http.StatusServiceUnavailable, "draining")
		return
	}
	s.inflight.Add(1)
	defer s.inflight.Done()
	s.requests.Inc()
	tn := s.adm.tenant(tenantOf(r))
	tn.requests.Inc()

	if !s.adm.enter() {
		s.shed(w, 50*time.Millisecond, "queue full")
		return
	}
	defer s.adm.leave()

	batched := r.URL.Path == "/v1/gemm/batched"
	h, prec, code, err := readHeader(r.Body, batched, s.cfg.MaxDim)
	if err != nil {
		s.fail(w, code, "%v", err)
		return
	}

	// Quota: the whole batch's arithmetic volume, not one item's — a
	// tenant cannot smuggle count× the work past its token bucket by
	// folding requests into batches.
	if s.cfg.QuotaMflopRate > 0 {
		mflop := blas.FlopCount(h.M, h.N, h.K) * float64(h.Count) / 1e6
		if ok, retry := s.adm.admit(tn, mflop, time.Now()); !ok {
			s.shed(w, retry, fmt.Sprintf("tenant %q over quota", tn.name))
			return
		}
	}

	deadline := s.cfg.DefaultDeadline
	if h.DeadlineMS > 0 {
		deadline = time.Duration(h.DeadlineMS) * time.Millisecond
	}
	ctx, cancel := context.WithTimeout(r.Context(), deadline)
	defer cancel()

	start := time.Now()
	var resp *RespHeader
	var payload []byte
	if prec == matrix.Double {
		resp, payload, err = runRequest[float64](ctx, s, s.e64, h, r.Body)
	} else {
		resp, payload, err = runRequest[float32](ctx, s, s.e32, h, r.Body)
	}
	if err != nil {
		s.fail(w, statusOf(err), "%v", err)
		return
	}
	if batched {
		resp.Count = h.Count
	}
	elapsed := time.Since(start)
	resp.ElapsedMS = float64(elapsed.Microseconds()) / 1e3
	tn.seconds.Observe(elapsed.Seconds())
	s.countResponse(http.StatusOK)
	w.Header().Set("Content-Type", "application/octet-stream")
	// A write error here means the client went away mid-response;
	// nothing more to do.
	_ = writeFrame(w, resp, payload)
}

// statusOf maps an execution error to its HTTP status.
func statusOf(err error) int {
	switch {
	case err == nil:
		return http.StatusOK
	case errors.Is(err, context.DeadlineExceeded) || errors.Is(err, sched.ErrDeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		// The client went away; the status is for the logs only.
		return http.StatusServiceUnavailable
	case errors.Is(err, errDraining):
		return http.StatusServiceUnavailable
	case errors.Is(err, errPayload):
		return http.StatusBadRequest
	default:
		return http.StatusInternalServerError
	}
}

// runRequest decodes the request's operand slabs and executes them:
// across the pool when the request's volume clears the large-problem
// threshold, otherwise as one member of its shape's coalescing group
// on eng, the shared engine for T's precision. It returns the response
// header and the encoded result slab. A free function because methods
// cannot be generic.
func runRequest[T matrix.Scalar](ctx context.Context, s *Server, eng *gemmimpl.Engine, h *Header, body io.Reader) (*RespHeader, []byte, error) {
	sb, err := decodeRequest[T](body, h)
	if err != nil {
		return nil, nil, err
	}
	resp := &RespHeader{OK: true}
	if s.pool != nil && sb.FlopCount() >= s.cfg.LargeFlops {
		s.pathPool.Inc()
		resp.Path = "pool"
		err = runPool(ctx, s.pool, sb)
	} else {
		s.pathEng.Inc()
		resp.Path = "engine"
		mp, np, kp := eng.Impl().PaddedDims(h.M, h.N, h.K)
		p := &pending{ctx: ctx, done: make(chan batchResult, 1), run: func(ctx context.Context) error {
			return gemmimpl.EngineRunStridedCtx(ctx, eng, sb)
		}}
		if err = s.bat.submit(groupKey{eng: eng, mp: mp, np: np, kp: kp}, p); err == nil {
			res := <-p.done
			err, resp.BatchSize = res.err, res.size
		}
	}
	if err != nil {
		return nil, nil, err
	}
	return resp, floatsToBytes(sb.C), nil
}

// runPool executes sb across the pool. A single item is
// tile-partitioned so a large single GEMM still spreads across the
// members; a batch is partitioned by item.
func runPool[T matrix.Scalar](ctx context.Context, pool *sched.Pool, sb *batch.Strided[T]) error {
	if sb.Count > 1 {
		return sched.RunStridedBatchedCtx(ctx, pool, sb)
	}
	items, err := sb.Items()
	if err != nil {
		return err
	}
	return sched.RunCtx(ctx, pool, sb.TransA, sb.TransB, sb.Alpha, items[0].A, items[0].B, sb.Beta, items[0].C)
}

// handleMetrics is GET /metrics: the registry snapshot as JSON.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	_ = s.reg.Snapshot().WriteJSON(w)
}

// healthResponse is the GET /healthz body.
type healthResponse struct {
	Status string         `json:"status"` // "ok" or "draining"
	Device string         `json:"device"`
	Pool   []memberHealth `json:"pool,omitempty"`
}

type memberHealth struct {
	Device      string `json:"device"`
	State       string `json:"state"`
	Killed      bool   `json:"killed,omitempty"`
	ConsecFails int    `json:"consecutive_failures,omitempty"`
	Recoveries  int    `json:"recoveries,omitempty"`
}

// handleHealthz is GET /healthz: 200 while serving (with the pool's
// health state machine when a pool is attached), 503 once draining.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	h := healthResponse{Status: "ok", Device: s.cfg.Device}
	code := http.StatusOK
	if s.draining.Load() {
		h.Status = "draining"
		code = http.StatusServiceUnavailable
	}
	if s.pool != nil {
		for _, mh := range s.pool.Health() {
			h.Pool = append(h.Pool, memberHealth{
				Device: mh.Device, State: mh.State.String(), Killed: mh.Killed,
				ConsecFails: mh.ConsecFails, Recoveries: mh.Recoveries,
			})
		}
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(h)
}
