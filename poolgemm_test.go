package oclgemm

// Public-API coverage of the multi-device pool: construction over the
// default catalog and Table II kernels, bit-identical results vs a
// single-device GEMM, stats, the modeled estimate, Kill, and the
// pool-backed solver.

import (
	"errors"
	"math/rand"
	"testing"
)

func TestPoolGEMMPublicAPI(t *testing.T) {
	pg, err := NewPoolGEMM(PoolOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer pg.Close()
	if got := len(pg.Devices()); got != 6 {
		t.Fatalf("default pool has %d devices, want the Table I six", got)
	}
	if pg.Alive() != 6 {
		t.Fatalf("Alive() = %d at start", pg.Alive())
	}

	// A pooled DGEMM must be bit-identical to the same multiplication
	// on one device running its published Table II kernel.
	const m, n, k = 160, 128, 64
	rng := rand.New(rand.NewSource(11))
	a := NewMatrix[float64](m, k, RowMajor)
	b := NewMatrix[float64](k, n, RowMajor)
	c := NewMatrix[float64](m, n, RowMajor)
	a.FillRandom(rng)
	b.FillRandom(rng)
	c.FillRandom(rng)
	want := c.Clone()

	if err := pg.Run(NoTrans, NoTrans, 1.5, a, b, 0.5, c); err != nil {
		t.Fatal(err)
	}

	p, ok, err := ParamsFor(PaperKernels(), "cayman", Double)
	if err != nil || !ok {
		t.Fatalf("cayman Table II kernel: ok=%v err=%v", ok, err)
	}
	dev, err := DeviceByID("cayman")
	if err != nil {
		t.Fatal(err)
	}
	g, err := NewGEMM(dev, p)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	if err := g.Run(NoTrans, NoTrans, 1.5, a, b, 0.5, want); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			if c.At(i, j) != want.At(i, j) {
				t.Fatalf("pool[%d,%d] = %v, single-device %v", i, j, c.At(i, j), want.At(i, j))
			}
		}
	}

	var tiles int
	for _, st := range pg.Stats() {
		tiles += st.Tiles
	}
	if tiles == 0 {
		t.Error("pool stats record no tiles after a run")
	}

	// The modeled 8192-class partition must beat the best single member.
	est, err := pg.Estimate(Double, 8192, 8192, 8192)
	if err != nil {
		t.Fatal(err)
	}
	if est.Speedup <= 1 || est.GFlops <= est.BestSingleGFlops {
		t.Errorf("estimate: %.1f GF/s, best single %.1f (%s), speedup %.2f",
			est.GFlops, est.BestSingleGFlops, est.BestSingleDevice, est.Speedup)
	}

	// Kill a member; the pool keeps working without it.
	if !pg.Kill("bulldozer") {
		t.Fatal("Kill(bulldozer) matched no member")
	}
	if pg.Alive() != 5 {
		t.Fatalf("Alive() = %d after Kill", pg.Alive())
	}
	if err := pg.Run(NoTrans, NoTrans, 1.5, a, b, 0, c); err != nil {
		t.Fatalf("run after Kill: %v", err)
	}
}

func TestPoolGEMMAllDeadIsTyped(t *testing.T) {
	pg, err := NewPoolGEMM(PoolOptions{
		LaunchHook: func(deviceID, kernelName string) error {
			return ErrDeviceDead
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer pg.Close()

	rng := rand.New(rand.NewSource(5))
	a := NewMatrix[float64](64, 32, RowMajor)
	b := NewMatrix[float64](32, 48, RowMajor)
	c := NewMatrix[float64](64, 48, RowMajor)
	a.FillRandom(rng)
	b.FillRandom(rng)

	err = pg.Run(NoTrans, NoTrans, 1, a, b, 0, c)
	if !errors.Is(err, ErrNoDevices) && !errors.Is(err, ErrDeviceDead) {
		t.Fatalf("whole-pool death must be typed, got %v", err)
	}
	if pg.Alive() != 0 {
		t.Fatalf("Alive() = %d after whole-pool death", pg.Alive())
	}
}

func TestPoolSolverPublicAPI(t *testing.T) {
	pg, err := NewPoolGEMM(PoolOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer pg.Close()
	s := NewPoolSolver(pg)
	if s.BlockSize() <= 0 {
		t.Fatalf("pool solver block size %d", s.BlockSize())
	}

	// SPD matrix: factor, solve, check the residual.
	const n = 96
	rng := rand.New(rand.NewSource(17))
	g := NewMatrix[float64](n, n, RowMajor)
	g.FillRandom(rng)
	spd := NewMatrix[float64](n, n, RowMajor)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			var v float64
			for l := 0; l < n; l++ {
				v += float64(g.At(i, l) * g.At(j, l))
			}
			if i == j {
				v += float64(n)
			}
			spd.Set(i, j, v)
		}
	}
	orig := spd.Clone()
	if err := Cholesky(s, spd); err != nil {
		t.Fatal(err)
	}
	x := NewMatrix[float64](n, 3, RowMajor)
	x.FillRandom(rng)
	rhs := x.Clone()
	if err := CholeskySolve(s, spd, x); err != nil {
		t.Fatal(err)
	}
	// orig·x ≈ rhs
	for i := 0; i < n; i++ {
		for j := 0; j < 3; j++ {
			var v float64
			for l := 0; l < n; l++ {
				v += float64(orig.At(i, l) * x.At(l, j))
			}
			if diff := v - rhs.At(i, j); diff > 1e-8 || diff < -1e-8 {
				t.Fatalf("residual [%d,%d] = %g", i, j, diff)
			}
		}
	}
}
