package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"oclgemm"
	"oclgemm/internal/blas"
	"oclgemm/internal/clsim"
	"oclgemm/internal/codegen"
	"oclgemm/internal/core"
	"oclgemm/internal/gemmimpl"
	"oclgemm/internal/kernels"
	"oclgemm/internal/matrix"
	"oclgemm/internal/obs"
)

// mixDevice is the single-device routines' processor; its Table II
// kernels run the library calls (the pool uses every Table I device).
const mixDevice = "tahiti"

// mixKind is one op kind of the gemm-mix deck. An op is one library
// call: a single GEMM, a RunBatch of calls sharing one fixed A (pack
// reuse), a strided batch, or the pooled form of a single or strided
// call.
type mixKind struct {
	name    string
	single  bool // SGEMM (float32) instead of DGEMM
	ta, tb  blas.Transpose
	m, n, k int
	beta    float64
	calls   int // > 1: one RunBatch of this many calls sharing a fixed A
	count   int // > 0: one strided batch of count items
	pool    bool
}

var (
	nn = [2]blas.Transpose{blas.NoTrans, blas.NoTrans}
	tn = [2]blas.Transpose{blas.Trans, blas.NoTrans}
	nt = [2]blas.Transpose{blas.NoTrans, blas.Trans}
)

func newKind(name string, single bool, tr [2]blas.Transpose, m, n, k int, beta float64) mixKind {
	return mixKind{name: name, single: single, ta: tr[0], tb: tr[1], m: m, n: n, k: k, beta: beta}
}

// mixKinds is one deck: every kind once, in a seeded order per deck.
// Pool calls take roughly a third of the deck's time on a 2-core host.
var mixKinds = func() []mixKind {
	ks := []mixKind{
		newKind("d96-nn", false, nn, 96, 96, 96, 0),
		newKind("d160-tn-beta", false, tn, 160, 160, 160, 0.5),
		newKind("d224-nt", false, nt, 224, 224, 224, 0),
		newKind("d288-nn-beta", false, nn, 288, 288, 288, 0.5),
		newKind("d256x96x160-nn-beta", false, nn, 256, 96, 160, 0.5),
		newKind("s128-nn-beta", true, nn, 128, 128, 128, 0.5),
		newKind("s192-tn", true, tn, 192, 192, 192, 0),
		newKind("s256-nt-beta", true, nt, 256, 256, 256, 0.5),
		newKind("s288-nn", true, nn, 288, 288, 288, 0),
		newKind("s96-nn", true, nn, 96, 96, 96, 0),
		newKind("d128-nt-beta", false, nt, 128, 128, 128, 0.5),
	}
	fixed := []mixKind{
		newKind("d96-fixedA-x4", false, nn, 96, 96, 96, 0),
		newKind("s128-fixedA-x4-beta", true, nn, 128, 128, 128, 0.5),
	}
	for i := range fixed {
		fixed[i].calls = 4
	}
	strided := []mixKind{
		newKind("d96-strided-x4", false, nn, 96, 96, 96, 0),
		newKind("s128-strided-x4-beta", true, nn, 128, 128, 128, 0.5),
	}
	for i := range strided {
		strided[i].count = 4
	}
	pool := []mixKind{
		newKind("pool-d192-nn-beta", false, nn, 192, 192, 192, 0.5),
		newKind("pool-s160-nt", true, nt, 160, 160, 160, 0),
		newKind("pool-d96-strided-x4", false, nn, 96, 96, 96, 0),
		newKind("pool-s96-strided-x4-beta", true, nn, 96, 96, 96, 0.5),
	}
	for i := range pool {
		pool[i].pool = true
		if i >= 2 {
			pool[i].count = 4
		}
	}
	ks = append(ks, fixed...)
	ks = append(ks, strided...)
	return append(ks, pool...)
}()

const (
	mixAlpha = 1.25
	// mixSets input sets per kind are cycled, so consecutive calls of a
	// kind see fresh operands (except the fixed A of the RunBatch kinds).
	mixSets = 2
)

// mixEnv is the device and the Table II kernels the routines use.
type mixEnv struct {
	dev      *oclgemm.Device
	pd, ps   codegen.Params
	imD, imS *gemmimpl.Impl // padding arithmetic only
}

func newMixEnv() (*mixEnv, error) {
	dev, err := oclgemm.DeviceByID(mixDevice)
	if err != nil {
		return nil, err
	}
	e := &mixEnv{dev: dev}
	db := oclgemm.PaperKernels()
	for _, x := range []struct {
		prec oclgemm.Precision
		p    *codegen.Params
		im   **gemmimpl.Impl
	}{{oclgemm.Double, &e.pd, &e.imD}, {oclgemm.Single, &e.ps, &e.imS}} {
		p, ok, err := oclgemm.ParamsFor(db, mixDevice, x.prec)
		if err != nil || !ok {
			return nil, fmt.Errorf("no Table II %s kernel for %s: %v", x.prec.GEMMName(), mixDevice, err)
		}
		if *x.im, err = gemmimpl.New(dev, p); err != nil {
			return nil, err
		}
		*x.p = p
	}
	return e, nil
}

// modelBest is the modeled best GFlop/s of the routines' kernels
// (geometric mean over precisions), the same quantity a search's
// winner reports.
func (e *mixEnv) modelBest() float64 {
	var bs []float64
	for _, p := range []codegen.Params{e.pd, e.ps} {
		b := 0.0
		for _, n := range core.Sizes(p.LCM(), 8192) {
			if gf, err := oclgemm.KernelGFlops(e.dev, p, n, n, n); err == nil && gf > b {
				b = gf
			}
		}
		bs = append(bs, b)
	}
	return geomean(bs)
}

// mixSystem is the system under test: one routine per precision and a
// Table I pool.
type mixSystem struct {
	d, s *oclgemm.GEMM
	pool *oclgemm.PoolGEMM
}

func newMixSystem(e *mixEnv, engineReg, poolReg *oclgemm.Metrics) (*mixSystem, error) {
	d, err := oclgemm.NewGEMM(e.dev, e.pd)
	if err != nil {
		return nil, err
	}
	s, err := oclgemm.NewGEMM(e.dev, e.ps)
	if err != nil {
		return nil, err
	}
	if engineReg != nil {
		d.Observe(engineReg, nil)
		s.Observe(engineReg, nil)
	}
	pool, err := oclgemm.NewPoolGEMM(oclgemm.PoolOptions{Metrics: poolReg})
	if err != nil {
		return nil, err
	}
	return &mixSystem{d: d, s: s, pool: pool}, nil
}

func (s *mixSystem) close() {
	s.d.Close()
	s.s.Close()
	s.pool.Close()
}

// mixOp is one kind with its seeded input sets and their reference
// results.
type mixOp interface {
	kind() *mixKind
	// prepare selects the next input set and restores its C (the β≠0
	// input, or a poison fill that a β=0 call must overwrite).
	prepare()
	// run issues the op; pool selects the pooled or the single-device
	// form of the same call.
	run(sys *mixSystem, pool bool) error
	// check compares the results with the internal/blas reference:
	// bit-exact for DGEMM, within matrix.Tolerance for SGEMM.
	check(corrupt bool) error
	expect()
	flops() float64
	// kernelSeconds times reps launches of the bare micro-kernel on the
	// op's padded shape; blasSeconds times one internal/blas call.
	kernelSeconds(e *mixEnv, reps int) (float64, error)
	blasSeconds(parallel bool) float64
}

type mixSet[T matrix.Scalar] struct {
	calls []oclgemm.GEMMCall[T]
	c0    [][]T
	want  []*matrix.Matrix[T]
	sb    *oclgemm.StridedBatch[T]
}

type mixOpT[T matrix.Scalar] struct {
	k    *mixKind
	sets []*mixSet[T]
	cur  int
}

func isSingle[T matrix.Scalar]() bool {
	var z T
	_, ok := any(z).(float32)
	return ok
}

// stored returns the stored shape of an operand whose op shape is
// rows×cols.
func stored(rows, cols int, t blas.Transpose) (int, int) {
	if t == blas.Trans {
		return cols, rows
	}
	return rows, cols
}

func newMixOp[T matrix.Scalar](k *mixKind, rng *rand.Rand) *mixOpT[T] {
	o := &mixOpT[T]{k: k}
	var fixedA *matrix.Matrix[T]
	ar, ac := stored(k.m, k.k, k.ta)
	br, bc := stored(k.k, k.n, k.tb)
	items := max(k.calls, k.count, 1)
	for s := 0; s < mixSets; s++ {
		st := &mixSet[T]{}
		var slabA, slabB, slabC []T
		if k.count > 0 {
			slabA, slabB, slabC = make([]T, items*ar*ac), make([]T, items*br*bc), make([]T, items*k.m*k.n)
		}
		for i := 0; i < items; i++ {
			var a, b, c *matrix.Matrix[T]
			if k.count > 0 {
				a = matrix.FromSlice(ar, ac, matrix.ColMajor, slabA[i*ar*ac:(i+1)*ar*ac])
				b = matrix.FromSlice(br, bc, matrix.ColMajor, slabB[i*br*bc:(i+1)*br*bc])
				c = matrix.FromSlice(k.m, k.n, matrix.ColMajor, slabC[i*k.m*k.n:(i+1)*k.m*k.n])
			} else {
				a = matrix.New[T](ar, ac, matrix.ColMajor)
				b = matrix.New[T](br, bc, matrix.ColMajor)
				c = matrix.New[T](k.m, k.n, matrix.ColMajor)
			}
			switch {
			case k.calls > 1 && fixedA != nil:
				a = fixedA
			case k.calls > 1:
				a.FillRandom(rng)
				fixedA = a
			default:
				a.FillRandom(rng)
			}
			b.FillRandom(rng)
			c.FillRandom(rng)
			st.c0 = append(st.c0, append([]T(nil), c.Data...))
			st.calls = append(st.calls, oclgemm.GEMMCall[T]{
				TransA: k.ta, TransB: k.tb, Alpha: T(mixAlpha), A: a, B: b, Beta: T(k.beta), C: c,
			})
		}
		if k.count > 0 {
			st.sb = &oclgemm.StridedBatch[T]{
				TransA: k.ta, TransB: k.tb, Alpha: T(mixAlpha), Beta: T(k.beta),
				M: k.m, N: k.n, K: k.k, Order: matrix.ColMajor,
				A: slabA, StrideA: ar * ac, B: slabB, StrideB: br * bc, C: slabC, StrideC: k.m * k.n,
				Count: items,
			}
		}
		o.sets = append(o.sets, st)
	}
	return o
}

func (o *mixOpT[T]) kind() *mixKind { return o.k }

func (o *mixOpT[T]) prepare() {
	o.cur = (o.cur + 1) % len(o.sets)
	st := o.sets[o.cur]
	for i, c := range st.calls {
		copy(c.C.Data, st.c0[i])
	}
}

func (o *mixOpT[T]) expect() {
	for _, st := range o.sets {
		st.want = st.want[:0]
		for i, c := range st.calls {
			w := matrix.FromSlice(c.C.Rows, c.C.Cols, matrix.ColMajor, append([]T(nil), st.c0[i]...))
			blas.GEMM(c.TransA, c.TransB, c.Alpha, c.A, c.B, c.Beta, w)
			st.want = append(st.want, w)
		}
	}
}

func (o *mixOpT[T]) routine(sys *mixSystem) *oclgemm.GEMM {
	if isSingle[T]() {
		return sys.s
	}
	return sys.d
}

func (o *mixOpT[T]) run(sys *mixSystem, pool bool) error {
	st := o.sets[o.cur]
	c := st.calls[0]
	switch {
	case pool && st.sb != nil:
		return oclgemm.PoolGEMMStridedBatched(sys.pool, st.sb)
	case pool:
		return oclgemm.PoolRun(sys.pool, c.TransA, c.TransB, c.Alpha, c.A, c.B, c.Beta, c.C)
	case st.sb != nil:
		return oclgemm.GEMMStridedBatched(o.routine(sys), st.sb)
	case len(st.calls) > 1:
		return oclgemm.RunBatch(o.routine(sys), st.calls)
	default:
		return oclgemm.Run(o.routine(sys), c.TransA, c.TransB, c.Alpha, c.A, c.B, c.Beta, c.C)
	}
}

func (o *mixOpT[T]) check(corrupt bool) error {
	st := o.sets[o.cur]
	for i, c := range st.calls {
		if corrupt && i == 0 {
			c.C.Data[0]++
		}
		if err := sameResult(c.C, st.want[i], o.k.k); err != nil {
			return fmt.Errorf("%s call %d: %w", o.k.name, i, err)
		}
	}
	return nil
}

// sameResult compares a result with its reference: bit-exact for
// float64, within matrix.Tolerance for float32 (its kernels round in
// single precision).
func sameResult[T matrix.Scalar](got, want *matrix.Matrix[T], k int) error {
	if isSingle[T]() {
		if d, tol := matrix.MaxRelDiff(got, want), matrix.Tolerance(matrix.Single, k); d > tol {
			return fmt.Errorf("%w: max rel diff %g > tolerance %g", errWrong, d, tol)
		}
		return nil
	}
	for r := 0; r < want.Rows; r++ {
		for c := 0; c < want.Cols; c++ {
			if g, w := got.At(r, c), want.At(r, c); g != w {
				return fmt.Errorf("%w: element (%d,%d) = %v, want %v bit-exact", errWrong, r, c, g, w)
			}
		}
	}
	return nil
}

func (o *mixOpT[T]) flops() float64 {
	return float64(len(o.sets[0].calls)) * blas.FlopCount(o.k.m, o.k.n, o.k.k)
}

func (o *mixOpT[T]) kernelSeconds(e *mixEnv, reps int) (float64, error) {
	p, im := e.pd, e.imD
	if isSingle[T]() {
		p, im = e.ps, e.imS
	}
	mp, np, kp := im.PaddedDims(o.k.m, o.k.n, o.k.k)
	st := o.sets[0]
	c := st.calls[0]
	// The routine's pack kernels produce exactly these zero-padded
	// block-major operands; the micro-kernel skips the zero padding.
	at := matrix.Pack(c.A, c.TransA == blas.NoTrans, kp, mp, p.Kwg, p.Mwg, p.LayoutA)
	bp := matrix.Pack(c.B, c.TransB == blas.Trans, kp, np, p.Kwg, p.Nwg, p.LayoutB)
	cp := matrix.Pack(matrix.FromSlice(o.k.m, o.k.n, matrix.ColMajor, st.c0[0]), false, mp, np, p.Mwg, p.Nwg, matrix.LayoutRowMajor)
	kern, err := kernels.NewGEMM(p, mp, np, kp, c.Alpha, at.Data, bp.Data, c.Beta, cp.Data)
	if err != nil {
		return 0, err
	}
	q := clsim.NewQueue(clsim.NewContext(&clsim.Device{Spec: e.dev}))
	if err := q.RunLockstep(kern, kern.NDRange()); err != nil { // warm the state free list
		return 0, err
	}
	runtime.GC()
	start := time.Now()
	for i := 0; i < reps; i++ {
		if err := q.RunLockstep(kern, kern.NDRange()); err != nil {
			return 0, err
		}
	}
	return since(start), nil
}

func (o *mixOpT[T]) blasSeconds(parallel bool) float64 {
	c := o.sets[0].calls[0]
	w := c.C.Clone()
	start := time.Now()
	if parallel {
		blas.GEMMParallel(c.TransA, c.TransB, c.Alpha, c.A, c.B, c.Beta, w)
	} else {
		blas.GEMMBlocked(c.TransA, c.TransB, c.Alpha, c.A, c.B, c.Beta, w)
	}
	return since(start)
}

// newMixOps builds every kind's input sets from the seed and computes
// their references on all cores (input generation, not set-up).
func newMixOps(rng *rand.Rand) []mixOp {
	ops := make([]mixOp, len(mixKinds))
	for i := range mixKinds {
		if mixKinds[i].single {
			ops[i] = newMixOp[float32](&mixKinds[i], rng)
		} else {
			ops[i] = newMixOp[float64](&mixKinds[i], rng)
		}
	}
	var wg sync.WaitGroup
	work := make(chan mixOp)
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for op := range work {
				op.expect()
			}
		}()
	}
	for _, op := range ops {
		work <- op
	}
	close(work)
	wg.Wait()
	return ops
}

// setupMix builds the system and warms every plan with one checked
// call per kind.
func setupMix(e *mixEnv, ops []mixOp, engineReg, poolReg *oclgemm.Metrics) (*mixSystem, error) {
	sys, err := newMixSystem(e, engineReg, poolReg)
	if err != nil {
		return nil, err
	}
	for _, op := range ops {
		op.prepare()
		err := op.run(sys, op.kind().pool)
		if err == nil {
			err = op.check(false)
		}
		if err != nil {
			sys.close()
			return nil, fmt.Errorf("warm-up %s: %w", op.kind().name, err)
		}
	}
	return sys, nil
}

// mixPhase runs whole decks in seeded order until seconds of timed
// calls have passed, checking every call outside its timer.
func mixPhase(cfg *config, rng *rand.Rand, ops []mixOp, sys *mixSystem, seconds float64) *phase {
	ph := &phase{runs: make([]int, len(ops))}
	mem := startMem()
	for {
		for _, i := range rng.Perm(len(ops)) {
			op := ops[i]
			op.prepare()
			start := time.Now()
			err := op.run(sys, op.kind().pool)
			lat := since(start)
			ph.rec.timed += lat
			if err == nil {
				err = op.check(cfg.takeCorrupt())
			}
			ph.rec.op(lat, op.flops(), err)
			ph.runs[i]++
		}
		ph.rec.cut()
		if ph.rec.timed >= seconds {
			break
		}
	}
	ph.alloc, ph.retained = mem.end()
	return ph
}

func runMix(cfg *config) (*outcome, error) {
	rng := rand.New(rand.NewSource(cfg.seed))
	env, err := newMixEnv()
	if err != nil {
		return nil, err
	}
	ops := newMixOps(rng)
	if !cfg.trace {
		var sys *mixSystem
		var setups []float64
		for i := 0; i < cfg.setupRuns(); i++ {
			if sys != nil {
				sys.close()
			}
			start := time.Now()
			if sys, err = setupMix(env, ops, nil, nil); err != nil {
				return nil, err
			}
			setups = append(setups, since(start))
		}
		defer sys.close()
		ph := mixPhase(cfg, rng, ops, sys, cfg.seconds)
		return &outcome{endToEnd(setups, ph, env.modelBest()), ph.rec.attempted, ph.rec.failed, ph.rec.firstFail}, nil
	}

	plainSys, err := setupMix(env, ops, nil, nil)
	if err != nil {
		return nil, err
	}
	defer plainSys.close()
	plain := mixPhase(cfg, rng, ops, plainSys, cfg.seconds/2)

	engineReg, poolReg := oclgemm.NewMetrics(), oclgemm.NewMetrics()
	sys, err := setupMix(env, ops, engineReg, poolReg)
	if err != nil {
		return nil, err
	}
	defer sys.close()
	snap0, pool0, stats0 := engineReg.Snapshot(), poolReg.Snapshot(), sys.pool.Stats()
	traced := mixPhase(cfg, rng, ops, sys, cfg.seconds/2)
	snap1, pool1, stats1 := engineReg.Snapshot(), poolReg.Snapshot(), sys.pool.Stats()

	all := plain.rec
	all.merge(&traced.rec)
	ms := mixLayerMetrics(env, ops, traced.runs, snap0, snap1, pool0, pool1, stats0, stats1)
	ladder, err := mixLadder(env, ops, plainSys)
	if err != nil {
		return nil, err
	}
	ms = append(ms, ladder...)
	ms = append(ms, metric{"bench.trace_overhead", ratio(quantile(traced.rec.lat, 0.5), quantile(plain.rec.lat, 0.5)), "ratio",
		"traced op_p50 / untraced op_p50 in this run"})
	return &outcome{ms, all.attempted, all.failed, all.firstFail}, nil
}

// delta reads one instrument's change between two snapshots: a counter,
// or a histogram's sum (sum=true) or count.
func delta(s0, s1 obs.Snapshot, name string, sum bool) float64 {
	if h1, ok := s1.Histograms[name]; ok {
		h0 := s0.Histograms[name]
		if sum {
			return h1.Sum - h0.Sum
		}
		return float64(h1.Count - h0.Count)
	}
	return float64(s1.Counters[name] - s0.Counters[name])
}

// engineLayerMetrics reads the gemmimpl, kernels and clsim instruments
// a routine's registry collected over a phase, per op.
func engineLayerMetrics(s0, s1 obs.Snapshot, ops float64, note string) []metric {
	d := func(name string, sum bool) float64 { return delta(s0, s1, name, sum) }
	packs := d("gemm.phase.pack.A.seconds", false) + d("gemm.phase.pack.B.seconds", false)
	reused := d("gemm.pack.reused.A", false) + d("gemm.pack.reused.B", false)
	unit, generic := d("kernels.gemm.groups{micro=unit}", false), d("kernels.gemm.groups{micro=generic}", false)
	return []metric{
		{"gemmimpl.pack_s", (d("gemm.phase.pack.A.seconds", true) + d("gemm.phase.pack.B.seconds", true) + d("gemm.phase.pack.C.seconds", true)) / ops, "s/op", note},
		{"gemmimpl.kernel_s", d("gemm.phase.kernel.seconds", true) / ops, "s/op", note},
		{"gemmimpl.copy_out_s", d("gemm.phase.copy.out.seconds", true) / ops, "s/op", note},
		{"gemmimpl.pack_reuse_ratio", ratio(reused, reused+packs), "ratio", "reused A/B packs / A/B packs attempted"},
		{"kernels.fast_path_ratio", ratio(unit, unit+generic), "ratio", "work-groups on the unit micro-kernel / all"},
		{"clsim.launches", d("clsim.kernel.launches", false) / ops, "count/op", note},
		{"clsim.workgroups", d("clsim.workgroups.run", false) / ops, "count/op", note},
		{"clsim.barriers", d("clsim.barriers.hit", false) / ops, "count/op", note},
	}
}

// planHitRatio is the plan-cache hit ratio over a phase: hits / lookups.
func planHitRatio(s0, s1 obs.Snapshot, note string) metric {
	hits, misses := delta(s0, s1, "gemm.plan.hit", false), delta(s0, s1, "gemm.plan.miss", false)
	return metric{"gemmimpl.plan_hit_ratio", ratio(hits, hits+misses), "ratio", note}
}

// padStats returns the computed useful and padded flops and the bytes
// the kernel phase moves for one call of the shape on im.
func padStats(im *gemmimpl.Impl, m, n, k int, beta float64, esz int) (useful, padded, bytes float64) {
	mp, np, kp := im.PaddedDims(m, n, k)
	cIO := 1.0
	if beta != 0 {
		cIO = 2
	}
	return blas.FlopCount(m, n, k), blas.FlopCount(mp, np, kp),
		float64(esz) * (float64(kp*mp) + float64(kp*np) + cIO*float64(mp*np))
}

func mixLayerMetrics(e *mixEnv, ops []mixOp, runs []int, s0, s1, p0, p1 obs.Snapshot, st0, st1 []oclgemm.PoolDeviceStats) []metric {
	var engineOps, poolOps, useful, padded, bytes, kflops float64
	for i, op := range ops {
		k := op.kind()
		n := float64(runs[i])
		if k.pool {
			poolOps += n
			continue
		}
		engineOps += n
		im, esz := e.imD, 8
		if k.single {
			im, esz = e.imS, 4
		}
		u, p, b := padStats(im, k.m, k.n, k.k, k.beta, esz)
		items := n * float64(max(k.calls, k.count, 1))
		useful += items * u
		padded += items * p
		kflops += items * p
		bytes += items * b
	}
	ms := engineLayerMetrics(s0, s1, engineOps, "per single-device op")
	ms = append(ms,
		// GEMM.Observe attaches after a routine's plan cache exists, so
		// only the pool members' caches report hits and misses.
		planHitRatio(p0, p1, "pool members' plan caches: hits / lookups"),
		metric{"gemmimpl.pad_efficiency", ratio(useful, padded), "ratio", "computed: useful / padded flops of single-device ops"},
		metric{"kernels.flops_per_byte", ratio(kflops, bytes), "flop/B", "computed: padded flops / A, B, C bytes of the kernel phase"},
	)

	var tiles, steals, retries, busy, maxBusy float64
	for i := range st1 {
		b := st1[i].BusySeconds - st0[i].BusySeconds
		tiles += float64(st1[i].Tiles - st0[i].Tiles)
		steals += float64(st1[i].Stolen - st0[i].Stolen)
		retries += float64(st1[i].Retries - st0[i].Retries)
		busy += b
		maxBusy = max(maxBusy, b)
	}
	return append(ms,
		metric{"sched.tiles", tiles / poolOps, "count/op", "per pool op"},
		metric{"sched.steals", steals / poolOps, "count/op", "per pool op"},
		metric{"sched.retries", retries / poolOps, "count/op", "per pool op"},
		metric{"sched.busy_s", busy / poolOps, "s/op", "member busy time per pool op"},
		metric{"sched.imbalance", ratio(maxBusy, busy/float64(len(st1))), "ratio", "max / mean member busy"},
	)
}

// mixLadder measures the layer ladder on the mix's single-call shapes:
// the internal/blas host ceiling, the bare micro-kernel, the full
// routine (pack + kernel + copy on fresh operands) and the pool against
// the routine on the pool's single-call shapes.
func mixLadder(e *mixEnv, ops []mixOp, sys *mixSystem) ([]metric, error) {
	const reps = 3
	var flops, kern, plan, par, blocked float64
	var pflops, pool, single float64
	for _, op := range ops {
		k := op.kind()
		if k.calls > 1 || k.count > 0 {
			continue
		}
		if k.pool {
			for i := 0; i < reps; i++ {
				for _, usePool := range []bool{true, false} {
					op.prepare()
					start := time.Now()
					if err := op.run(sys, usePool); err != nil {
						return nil, err
					}
					if usePool {
						pool += since(start)
					} else {
						single += since(start)
					}
				}
			}
			pflops += reps * op.flops()
			continue
		}
		ks, err := op.kernelSeconds(e, reps)
		if err != nil {
			return nil, err
		}
		kern += ks
		runtime.GC()
		for i := 0; i < reps; i++ {
			op.prepare()
			start := time.Now()
			if err := op.run(sys, false); err != nil {
				return nil, err
			}
			plan += since(start)
		}
		par += op.blasSeconds(true)
		blocked += op.blasSeconds(false)
		flops += op.flops()
	}
	gf := func(f, s float64) float64 { return ratio(f, s) / 1e9 }
	kernGF, planGF, blasGF := gf(reps*flops, kern), gf(reps*flops, plan), gf(flops, par)
	poolVsPlan := ratio(gf(pflops, pool), gf(pflops, single))
	return []metric{
		{"kernels.gflops", kernGF, "GFlop/s", "bare micro-kernel on padded shapes, useful flops"},
		{"blas.gflops", blasGF, "GFlop/s", "internal/blas GEMMParallel on the mix shapes"},
		{"blas.gflops_1t", gf(flops, blocked), "GFlop/s", "internal/blas GEMMBlocked, single-threaded baseline"},
		{"sched.efficiency", poolVsPlan, "ratio", "pool GFlop/s / single-device GFlop/s, same shapes"},
		{"ladder.kernels_vs_blas", ratio(kernGF, blasGF), "ratio", ""},
		{"ladder.plan_vs_kernels", ratio(planGF, kernGF), "ratio", ""},
		{"ladder.pool_vs_plan", poolVsPlan, "ratio", "same measurement as sched.efficiency"},
	}, nil
}
