package sched

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"oclgemm/internal/blas"
	"oclgemm/internal/codegen"
	"oclgemm/internal/device"
	"oclgemm/internal/faultinject"
	"oclgemm/internal/gemmimpl"
	"oclgemm/internal/matrix"
	"oclgemm/internal/tunedb"
)

// testShapes are small known-valid kernel parameter sets (work-group
// sizes far below Table II) so the functional simulation stays fast;
// rotating them across pool members makes every pool heterogeneous in
// both device model and kernel blocking.
var testShapes = []codegen.Params{
	{Algorithm: codegen.BA, Mwg: 8, Nwg: 8, Kwg: 4,
		MdimC: 4, NdimC: 4, MdimA: 4, NdimB: 4, Kwi: 2, VectorWidth: 1,
		SharedA: true, SharedB: true,
		LayoutA: matrix.LayoutCBL, LayoutB: matrix.LayoutCBL},
	{Algorithm: codegen.BA, Mwg: 16, Nwg: 16, Kwg: 8,
		MdimC: 4, NdimC: 4, MdimA: 4, NdimB: 4, Kwi: 2, VectorWidth: 2,
		SharedB: true,
		LayoutA: matrix.LayoutCBL, LayoutB: matrix.LayoutRBL},
	{Algorithm: codegen.BA, Mwg: 32, Nwg: 32, Kwg: 16,
		MdimC: 8, NdimC: 8, MdimA: 8, NdimB: 8, Kwi: 2, VectorWidth: 1,
		LayoutA: matrix.LayoutRBL, LayoutB: matrix.LayoutRBL},
}

// testDB builds a tuning database assigning each device a small kernel,
// rotating through testShapes for heterogeneity.
func testDB(t testing.TB, devs []*device.Spec) *tunedb.DB {
	t.Helper()
	db := &tunedb.DB{Version: tunedb.FormatVersion}
	for i, d := range devs {
		for _, prec := range []matrix.Precision{matrix.Single, matrix.Double} {
			p := testShapes[i%len(testShapes)]
			p.Precision = prec
			if err := p.CheckDevice(d); err != nil {
				t.Fatalf("test params invalid for %s: %v", d.ID, err)
			}
			db.Put(tunedb.FromParams(d.ID, p, 100, 1024, "test"))
		}
	}
	return db
}

// fourDevices is a heterogeneous pool: two GPUs and two CPUs.
func fourDevices(t testing.TB) []*device.Spec {
	t.Helper()
	var out []*device.Spec
	for _, id := range []string{"tahiti", "cayman", "sandybridge", "bulldozer"} {
		d, err := device.ByID(id)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, d)
	}
	return out
}

func testPool(t testing.TB, opts Options) *Pool {
	t.Helper()
	if opts.Devices == nil {
		opts.Devices = fourDevices(t)
	}
	if opts.DB == nil {
		opts.DB = testDB(t, opts.Devices)
	}
	p, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	return p
}

func randMat[T matrix.Scalar](rows, cols int, seed int64) *matrix.Matrix[T] {
	m := matrix.New[T](rows, cols, matrix.ColMajor)
	m.FillRandom(rand.New(rand.NewSource(seed)))
	return m
}

// singleDeviceRef computes the same GEMM on one device NOT in the test
// pool, with yet another kernel blocking — the bit-identical oracle.
func singleDeviceRef[T matrix.Scalar](t testing.TB, ta, tb blas.Transpose, alpha T, a, b *matrix.Matrix[T], beta T, c *matrix.Matrix[T]) {
	t.Helper()
	p := testShapes[2]
	p.Precision = precisionOf[T]()
	im, err := gemmimpl.New(device.Kepler(), p)
	if err != nil {
		t.Fatal(err)
	}
	if err := gemmimpl.Run(im, ta, tb, alpha, a, b, beta, c); err != nil {
		t.Fatal(err)
	}
}

// requireBitIdentical fails unless every element of got equals want
// exactly (bit-for-bit for the values the kernels produce).
func requireBitIdentical[T matrix.Scalar](t testing.TB, got, want *matrix.Matrix[T], label string) {
	t.Helper()
	for i := 0; i < got.Rows; i++ {
		for j := 0; j < got.Cols; j++ {
			if got.At(i, j) != want.At(i, j) {
				t.Fatalf("%s: C[%d,%d] = %v, single-device %v (not bit-identical)",
					label, i, j, got.At(i, j), want.At(i, j))
			}
		}
	}
}

// Pool results must be bit-identical to a single-device run for all
// four multiplication types, both precisions, odd sizes crossing the
// blocking boundaries, and nontrivial alpha/beta including beta == 0.
func TestPoolBitIdenticalToSingleDevice(t *testing.T) {
	t.Run("double", func(t *testing.T) { runBitIdentical[float64](t) })
	t.Run("single", func(t *testing.T) { runBitIdentical[float32](t) })
}

func runBitIdentical[T matrix.Scalar](t *testing.T) {
	p := testPool(t, Options{})
	transposes := []blas.Transpose{blas.NoTrans, blas.Trans}
	scalars := []struct{ alpha, beta T }{{1, 0}, {1.5, 0.5}, {-1, 2}, {2, 1}}
	si := 0
	for _, size := range []int{1, 7, 33, 129, 257} {
		for _, ta := range transposes {
			for _, tb := range transposes {
				sc := scalars[si%len(scalars)]
				si++
				m, n, k := size, size, size
				dims := func(rows, cols int, tr blas.Transpose) (int, int) {
					if tr == blas.Trans {
						return cols, rows
					}
					return rows, cols
				}
				ar, ac := dims(m, k, ta)
				br, bc := dims(k, n, tb)
				a := randMat[T](ar, ac, int64(7*size+1))
				b := randMat[T](br, bc, int64(7*size+2))
				c := randMat[T](m, n, int64(7*size+3))
				want := c.Clone()
				singleDeviceRef(t, ta, tb, sc.alpha, a, b, sc.beta, want)
				if err := RunCtx(context.Background(), p, ta, tb, sc.alpha, a, b, sc.beta, c); err != nil {
					t.Fatalf("size %d %v/%v: %v", size, ta, tb, err)
				}
				requireBitIdentical(t, c, want,
					fmt.Sprintf("size %d %v/%v alpha=%v beta=%v", size, ta, tb, sc.alpha, sc.beta))
			}
		}
	}
}

// Every pool size from one to the full eight-device catalog must agree
// with the single-device run.
func TestPoolSizesOneToEight(t *testing.T) {
	catalog := device.Catalog()
	if len(catalog) != 8 {
		t.Fatalf("catalog has %d devices, want 8", len(catalog))
	}
	db := testDB(t, catalog)
	m, n, k := 100, 90, 70
	a := randMat[float64](m, k, 1)
	b := randMat[float64](k, n, 2)
	cRef := randMat[float64](m, n, 3)
	want := cRef.Clone()
	singleDeviceRef(t, blas.NoTrans, blas.NoTrans, 1.25, a, b, 0.75, want)
	for size := 1; size <= len(catalog); size++ {
		p := testPool(t, Options{Devices: catalog[:size], DB: db})
		c := cRef.Clone()
		if err := RunCtx(context.Background(), p, blas.NoTrans, blas.NoTrans, 1.25, a, b, 0.75, c); err != nil {
			t.Fatalf("pool of %d: %v", size, err)
		}
		requireBitIdentical(t, c, want, fmt.Sprintf("pool of %d", size))
		var tiles int
		for _, st := range p.Stats() {
			tiles += st.Tiles
			if st.Retries != 0 {
				t.Errorf("pool of %d: %s has %d retries on a fault-free run", size, st.Device, st.Retries)
			}
		}
		if tiles == 0 {
			t.Fatalf("pool of %d executed no tiles", size)
		}
	}
}

// A device that starts failing mid-run must be declared dead, its tiles
// must migrate to the survivors, and the result must stay bit-identical.
func TestPoolSurvivesDeviceDeathMidRun(t *testing.T) {
	const victim = "cayman"
	var launches int64
	var once sync.Once
	died := make(chan struct{})
	// Scheduling-independent mid-run death: every other member's first
	// launch blocks until the victim has started failing, so the victim
	// is guaranteed to execute — and die — while tiles are still in
	// flight, whatever the goroutine interleaving (even GOMAXPROCS=1).
	opts := Options{
		TileM: 32, TileN: 32, Workers: 1,
		LaunchHook: func(deviceID, kernelName string) error {
			if deviceID != victim {
				<-died
				return nil
			}
			if atomic.AddInt64(&launches, 1) > 4 {
				once.Do(func() { close(died) })
				return errors.New("injected: device fell off the bus")
			}
			return nil
		},
	}
	p := testPool(t, opts)
	m, n, k := 192, 192, 48
	a := randMat[float64](m, k, 11)
	b := randMat[float64](k, n, 12)
	c := randMat[float64](m, n, 13)
	want := c.Clone()
	singleDeviceRef(t, blas.NoTrans, blas.NoTrans, 1.5, a, b, 0.5, want)
	if err := RunCtx(context.Background(), p, blas.NoTrans, blas.NoTrans, 1.5, a, b, 0.5, c); err != nil {
		t.Fatalf("run with injected death: %v", err)
	}
	requireBitIdentical(t, c, want, "with mid-run device death")

	if p.Alive() != 3 {
		t.Errorf("alive = %d, want 3 after %s died", p.Alive(), victim)
	}
	var dead DeviceStats
	var survivorsTiles, retries int
	for _, st := range p.Stats() {
		if st.Device == victim {
			dead = st
			continue
		}
		survivorsTiles += st.Tiles
		if st.Dead {
			t.Errorf("%s is marked dead but was not injected", st.Device)
		}
	}
	for _, st := range p.Stats() {
		retries += st.Retries
	}
	if !dead.Dead {
		t.Errorf("%s not marked dead: %+v", victim, dead)
	}
	if retries == 0 {
		t.Error("no retries recorded despite injected failures")
	}
	if survivorsTiles == 0 {
		t.Error("survivors executed no tiles")
	}

	// The dead member stays out of later runs, which must still work.
	c2 := randMat[float64](64, 64, 14)
	want2 := c2.Clone()
	a2, b2 := randMat[float64](64, 32, 15), randMat[float64](32, 64, 16)
	singleDeviceRef(t, blas.NoTrans, blas.NoTrans, 1.0, a2, b2, 0.0, want2)
	if err := RunCtx(context.Background(), p, blas.NoTrans, blas.NoTrans, 1.0, a2, b2, 0.0, c2); err != nil {
		t.Fatalf("run after death: %v", err)
	}
	requireBitIdentical(t, c2, want2, "run after device death")
	for _, st := range p.Stats() {
		if st.Device == victim && st.Tiles != dead.Tiles {
			t.Errorf("dead %s executed more tiles after death", victim)
		}
	}
}

// Kill removes a member between runs; results stay identical and the
// member gets no further tiles.
func TestPoolKill(t *testing.T) {
	p := testPool(t, Options{})
	if !p.Kill("bulldozer") {
		t.Fatal("Kill did not match bulldozer")
	}
	if p.Kill("no-such-device") {
		t.Fatal("Kill matched a nonexistent device")
	}
	if p.Alive() != 3 {
		t.Fatalf("alive = %d after Kill, want 3", p.Alive())
	}
	m, n, k := 96, 96, 40
	a := randMat[float32](m, k, 21)
	b := randMat[float32](k, n, 22)
	c := randMat[float32](m, n, 23)
	want := c.Clone()
	singleDeviceRef(t, blas.Trans, blas.NoTrans, float32(2), a.Transpose(), b, float32(1), want)
	if err := RunCtx(context.Background(), p, blas.Trans, blas.NoTrans, float32(2), a.Transpose(), b, float32(1), c); err != nil {
		t.Fatal(err)
	}
	requireBitIdentical(t, c, want, "after Kill")
	for _, st := range p.Stats() {
		if st.Device == "bulldozer" && st.Tiles != 0 {
			t.Errorf("killed member executed %d tiles", st.Tiles)
		}
	}
}

// When every member dies, Run must return an error rather than silently
// dropping tiles.
func TestPoolAllDevicesDead(t *testing.T) {
	boom := errors.New("injected: total failure")
	p := testPool(t, Options{
		Devices:    fourDevices(t)[:2],
		LaunchHook: func(deviceID, kernelName string) error { return boom },
	})
	a := randMat[float64](64, 32, 31)
	b := randMat[float64](32, 64, 32)
	c := randMat[float64](64, 64, 33)
	err := RunCtx(context.Background(), p, blas.NoTrans, blas.NoTrans, 1.0, a, b, 0.0, c)
	if err == nil {
		t.Fatal("Run succeeded with every launch failing")
	}
	if p.Alive() != 0 {
		t.Errorf("alive = %d, want 0", p.Alive())
	}
	if err := RunCtx(context.Background(), p, blas.NoTrans, blas.NoTrans, 1.0, a, b, 0.0, c); !errors.Is(err, ErrNoDevices) {
		t.Errorf("run on dead pool: %v, want ErrNoDevices", err)
	}
}

// Deterministic chaos via the fault injector: launches fail per
// (device, kernel); tiles must reroute and the result must stay
// bit-identical whenever at least one member survives.
func TestPoolUnderInjectedFaults(t *testing.T) {
	inj, err := faultinject.New(faultinject.Config{Seed: 7, CompileRate: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	hk := inj.LaunchHook()
	p := testPool(t, Options{
		TileM: 32, TileN: 32,
		LaunchHook: func(deviceID, kernelName string) error {
			return hk(deviceID + "/" + kernelName)
		},
	})
	m, n, k := 160, 160, 48
	a := randMat[float64](m, k, 41)
	b := randMat[float64](k, n, 42)
	c := randMat[float64](m, n, 43)
	want := c.Clone()
	singleDeviceRef(t, blas.NoTrans, blas.NoTrans, 1.25, a, b, 0.5, want)
	runErr := RunCtx(context.Background(), p, blas.NoTrans, blas.NoTrans, 1.25, a, b, 0.5, c)
	if p.Alive() == 0 {
		t.Skipf("seed killed every member (err=%v); pick a tamer seed", runErr)
	}
	if runErr != nil {
		t.Fatalf("run under faults with %d survivors: %v", p.Alive(), runErr)
	}
	requireBitIdentical(t, c, want, "under injected faults")
}

// Stats must account for every tile exactly once and record data
// movement and modeled time.
func TestPoolStatsAccounting(t *testing.T) {
	p := testPool(t, Options{TileM: 64, TileN: 64})
	m, n, k := 256, 192, 64
	a := randMat[float64](m, k, 51)
	b := randMat[float64](k, n, 52)
	c := randMat[float64](m, n, 53)
	if err := RunCtx(context.Background(), p, blas.NoTrans, blas.NoTrans, 1.0, a, b, 0.0, c); err != nil {
		t.Fatal(err)
	}
	wantTiles := ((m + 63) / 64) * ((n + 63) / 64)
	var tiles int
	var bytes int64
	var model float64
	for _, st := range p.Stats() {
		tiles += st.Tiles
		bytes += st.BytesMoved
		model += st.ModelSeconds
		if st.Tiles > 0 && st.BusySeconds <= 0 {
			t.Errorf("%s: %d tiles but BusySeconds = %v", st.Device, st.Tiles, st.BusySeconds)
		}
	}
	if tiles != wantTiles {
		t.Errorf("tiles executed = %d, want %d", tiles, wantTiles)
	}
	// beta == 0: every tile moves its A panel, B panel and one C write.
	wantBytes := int64(0)
	esz := int64(8)
	for i0 := 0; i0 < m; i0 += 64 {
		th := min(64, m-i0)
		for j0 := 0; j0 < n; j0 += 64 {
			tw := min(64, n-j0)
			wantBytes += int64(th*k+k*tw+th*tw) * esz
		}
	}
	if bytes != wantBytes {
		t.Errorf("bytes moved = %d, want %d", bytes, wantBytes)
	}
	if model <= 0 {
		t.Error("no modeled time recorded")
	}
}

// The static estimate for a Table I pool on the paper's largest problem
// must beat the fastest single member in both precisions — the headline
// aggregate-throughput claim.
func TestPoolEstimateSpeedup8192(t *testing.T) {
	p, err := New(Options{Devices: device.All()})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	for _, prec := range []matrix.Precision{matrix.Single, matrix.Double} {
		est, err := p.Estimate(prec, 8192, 8192, 8192)
		if err != nil {
			t.Fatalf("%v: %v", prec, err)
		}
		if est.BestSingleGFlops <= 0 || est.BestSingleDevice == "" {
			t.Fatalf("%v: no best single member: %+v", prec, est)
		}
		if est.GFlops <= est.BestSingleGFlops {
			t.Errorf("%v: pool %.0f GFlop/s not above best single %s %.0f",
				prec, est.GFlops, est.BestSingleDevice, est.BestSingleGFlops)
		}
		if est.Speedup <= 1 {
			t.Errorf("%v: speedup %.3f, want > 1", prec, est.Speedup)
		}
		var share float64
		for _, me := range est.Members {
			share += me.Share
			if me.Seconds > est.Seconds+1e-12 {
				t.Errorf("%v: member %s finishes after the makespan", prec, me.Device)
			}
		}
		if share < 0.999 || share > 1.001 {
			t.Errorf("%v: member shares sum to %v, want 1", prec, share)
		}
	}
}

// Degenerate and invalid problems.
func TestPoolEdgeCases(t *testing.T) {
	p := testPool(t, Options{Devices: fourDevices(t)[:2]})
	// Zero-size C: nothing to do.
	if err := RunCtx(context.Background(), p, blas.NoTrans, blas.NoTrans, 1.0,
		matrix.New[float64](0, 4, matrix.ColMajor), matrix.New[float64](4, 0, matrix.ColMajor),
		0.0, matrix.New[float64](0, 0, matrix.ColMajor)); err != nil {
		t.Errorf("empty C: %v", err)
	}
	// Mismatched operands.
	if err := RunCtx(context.Background(), p, blas.NoTrans, blas.NoTrans, 1.0,
		randMat[float64](4, 5, 1), randMat[float64](6, 4, 2),
		0.0, randMat[float64](4, 4, 3)); err == nil {
		t.Error("dimension mismatch not reported")
	}
	// Estimate rejects nonsense.
	if _, err := p.Estimate(matrix.Double, 0, 8, 8); err == nil {
		t.Error("Estimate accepted zero M")
	}
}

// BenchmarkPoolGEMM runs one functional pool GEMM per iteration and
// reports the modeled 8192-class aggregate throughput of the full
// Table I pool against its fastest single member.
func BenchmarkPoolGEMM(b *testing.B) {
	p := testPool(b, Options{})
	m, n, k := 128, 128, 32
	a := randMat[float64](m, k, 61)
	bm := randMat[float64](k, n, 62)
	c := randMat[float64](m, n, 63)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := RunCtx(context.Background(), p, blas.NoTrans, blas.NoTrans, 1.0, a, bm, 0.0, c); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	tab, err := New(Options{Devices: device.All()})
	if err != nil {
		b.Fatal(err)
	}
	defer tab.Close()
	est, err := tab.Estimate(matrix.Double, 8192, 8192, 8192)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(est.GFlops, "pool-gflops-8192")
	b.ReportMetric(est.BestSingleGFlops, "best-single-gflops-8192")
	b.ReportMetric(est.Speedup, "speedup-8192")
}
