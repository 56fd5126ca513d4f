package gemmimpl

// Concurrency contract tests for the shared Engine/PlanCache: these
// are the regression proofs for the serve-path refactor — plan builds
// happen outside the cache lock with per-key singleflight, and the
// Impl mutators are safe concurrently with Runs. Run them under
// -race (make check, the CI serve job).

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"oclgemm/internal/blas"
	"oclgemm/internal/matrix"
)

// refGEMM computes the expected C with the serial pure-Go reference
// (bit-exact for float64 against the kernel's k-order accumulation).
func refGEMM[T matrix.Scalar](ta, tb blas.Transpose, alpha T, a, b *matrix.Matrix[T], beta T, c *matrix.Matrix[T]) *matrix.Matrix[T] {
	want := c.Clone()
	blas.GEMM(ta, tb, alpha, a, b, beta, want)
	return want
}

// A slow cold-shape plan build must not block calls on a warm shape:
// the build happens outside the cache lock. Before the fix, NewPlan ran
// under pc.mu and the warm runs below would deadlock against the
// stalled build until it finished.
func TestColdPlanBuildDoesNotBlockWarmShape(t *testing.T) {
	im := testImpl(t)
	pc := NewPlanCache[float64](im, 4)
	defer pc.Close()

	// Warm shape: build its plan up front.
	aw, bw, cw := randCM(8, 8, 1), randCM(8, 8, 2), randCM(8, 8, 3)
	if err := pc.Run(blas.NoTrans, blas.NoTrans, 1, aw, bw, 0, cw); err != nil {
		t.Fatal(err)
	}

	// Stall the next (cold) build until released.
	hold := make(chan struct{})
	entered := make(chan struct{})
	var once sync.Once
	pc.buildHook = func() error {
		once.Do(func() { close(entered) })
		<-hold
		return nil
	}

	coldDone := make(chan error, 1)
	go func() {
		a, b, c := randCM(32, 32, 4), randCM(32, 32, 5), randCM(32, 32, 6)
		coldDone <- pc.Run(blas.NoTrans, blas.NoTrans, 1, a, b, 0, c)
	}()
	select {
	case <-entered:
	case <-time.After(10 * time.Second):
		t.Fatal("cold build never started")
	}

	// With the cold build stalled, warm-shape traffic must keep flowing.
	warmDone := make(chan error, 1)
	go func() {
		for i := 0; i < 5; i++ {
			c := randCM(8, 8, int64(10+i))
			want := refGEMM(blas.NoTrans, blas.NoTrans, 1.0, aw, bw, 0.0, c)
			if err := pc.Run(blas.NoTrans, blas.NoTrans, 1, aw, bw, 0, c); err != nil {
				warmDone <- err
				return
			}
			if d := matrix.MaxRelDiff(c, want); d != 0 {
				warmDone <- fmt.Errorf("warm run diff %g", d)
				return
			}
		}
		warmDone <- nil
	}()
	select {
	case err := <-warmDone:
		if err != nil {
			t.Fatalf("warm runs while cold build stalled: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("warm shape blocked behind the stalled cold build (head-of-line blocking)")
	}

	close(hold)
	if err := <-coldDone; err != nil {
		t.Fatalf("cold run after release: %v", err)
	}
}

// Concurrent cold misses for ONE shape must build exactly one plan
// (per-key singleflight): the losers wait for the winner's build
// instead of duplicating the heavyweight setup or blocking the cache.
func TestColdMissSingleflight(t *testing.T) {
	im := testImpl(t)
	pc := NewPlanCache[float64](im, 4)
	defer pc.Close()

	var builds atomic.Int64
	pc.buildHook = func() error {
		builds.Add(1)
		time.Sleep(50 * time.Millisecond) // widen the race window
		return nil
	}

	a, b := randCM(16, 16, 1), randCM(16, 16, 2)
	const G = 8
	errs := make(chan error, G)
	for g := 0; g < G; g++ {
		go func(g int) {
			c := randCM(16, 16, int64(3+g))
			want := refGEMM(blas.NoTrans, blas.NoTrans, 1.0, a, b, 0.0, c)
			if err := pc.Run(blas.NoTrans, blas.NoTrans, 1, a, b, 0, c); err != nil {
				errs <- err
				return
			}
			if d := matrix.MaxRelDiff(c, want); d != 0 {
				errs <- fmt.Errorf("goroutine %d: diff %g", g, d)
				return
			}
			errs <- nil
		}(g)
	}
	for g := 0; g < G; g++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if n := builds.Load(); n != 1 {
		t.Fatalf("concurrent cold misses built %d plans, want exactly 1 (singleflight)", n)
	}
	if pc.Len() != 1 {
		t.Fatalf("cache holds %d plans, want 1", pc.Len())
	}
}

// A waiter whose context dies while the winner is still building must
// return the context error promptly, not wait out the build.
func TestSingleflightWaiterHonorsContext(t *testing.T) {
	im := testImpl(t)
	pc := NewPlanCache[float64](im, 4)
	defer pc.Close()

	hold := make(chan struct{})
	entered := make(chan struct{})
	var once sync.Once
	pc.buildHook = func() error {
		once.Do(func() { close(entered) })
		<-hold
		return nil
	}
	defer close(hold)

	a, b := randCM(16, 16, 1), randCM(16, 16, 2)
	go func() {
		c := randCM(16, 16, 3)
		_ = pc.Run(blas.NoTrans, blas.NoTrans, 1, a, b, 0, c)
	}()
	<-entered

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	c := randCM(16, 16, 4)
	err := pc.RunCtx(ctx, blas.NoTrans, blas.NoTrans, 1, a, b, 0, c)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("waiter got %v, want context.DeadlineExceeded", err)
	}
}

// A failed plan build must not poison its key: the builder and every
// singleflight waiter see the error, the placeholder entry is dropped,
// and the next call rebuilds the key successfully.
func TestFailedBuildDoesNotPoisonKey(t *testing.T) {
	im := testImpl(t)
	pc := NewPlanCache[float64](im, 4)
	defer pc.Close()

	errBuild := errors.New("injected build failure")
	var fails atomic.Int64
	pc.buildHook = func() error {
		if fails.Add(1) == 1 {
			time.Sleep(20 * time.Millisecond) // let waiters pile up
			return errBuild
		}
		return nil
	}

	a, b := randCM(16, 16, 1), randCM(16, 16, 2)
	const G = 4
	errs := make(chan error, G)
	for g := 0; g < G; g++ {
		go func(g int) {
			c := randCM(16, 16, int64(3+g))
			errs <- pc.Run(blas.NoTrans, blas.NoTrans, 1, a, b, 0, c)
		}(g)
	}
	var failed int
	for g := 0; g < G; g++ {
		if err := <-errs; err != nil {
			if !errors.Is(err, errBuild) {
				t.Fatalf("unexpected error %v", err)
			}
			failed++
		}
	}
	if failed == 0 {
		t.Fatal("injected build failure reached no caller")
	}

	// The key must recover on the next call.
	c := randCM(16, 16, 99)
	want := refGEMM(blas.NoTrans, blas.NoTrans, 1.0, a, b, 0.0, c)
	if err := pc.Run(blas.NoTrans, blas.NoTrans, 1, a, b, 0, c); err != nil {
		t.Fatalf("key poisoned after failed build: %v", err)
	}
	if d := matrix.MaxRelDiff(c, want); d != 0 {
		t.Fatalf("diff %g", d)
	}
	if pc.Len() != 1 {
		t.Fatalf("cache holds %d plans, want 1", pc.Len())
	}
}

// SetWorkers racing with Runs on a shared Engine:
// the old code wrote Impl.Workers unsynchronized while Plan.RunCtx
// read it — a data race -race flags. Results must stay bit-exact
// throughout.
func TestSetWorkersConcurrentWithRuns(t *testing.T) {
	im := testImpl(t)
	eng := NewEngine(im)
	defer eng.Close()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			im.SetWorkers(i % 3)
		}
	}()

	a, b := randCM(24, 24, 1), randCM(24, 24, 2)
	const G, runs = 4, 8
	errs := make(chan error, G)
	for g := 0; g < G; g++ {
		go func(g int) {
			for i := 0; i < runs; i++ {
				c := randCM(24, 24, int64(100*g+i))
				want := refGEMM(blas.NoTrans, blas.NoTrans, 1.0, a, b, 0.5, c)
				if err := EngineRun(eng, blas.NoTrans, blas.NoTrans, 1.0, a, b, 0.5, c); err != nil {
					errs <- err
					return
				}
				if d := matrix.MaxRelDiff(c, want); d != 0 {
					errs <- fmt.Errorf("goroutine %d run %d: diff %g under concurrent SetWorkers", g, i, d)
					return
				}
			}
			errs <- nil
		}(g)
	}
	for g := 0; g < G; g++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
}

// One shared Engine hammered by N goroutines across mixed shapes and
// precisions under cache-capacity pressure: every result must be
// bit-exact (float64) / exact (float32, same accumulation order)
// against the pure-Go reference, and evicted-while-in-use plans (the
// doomed path) must finish their in-flight call before being closed.
func TestConcurrentEngineSharingMixedShapes(t *testing.T) {
	im := testImpl(t)
	eng := NewEngine(im)
	defer eng.Close()

	// Shrink the float64 cache to force evict-while-in-use churn.
	eng.c64.maxPlans = 2

	shapes := [][3]int{{8, 8, 4}, {16, 8, 8}, {8, 24, 4}, {32, 16, 8}, {13, 19, 11}}
	const G = 8
	const runsPerG = 6
	var wg sync.WaitGroup
	errs := make(chan error, G)
	for g := 0; g < G; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < runsPerG; i++ {
				s := shapes[rng.Intn(len(shapes))]
				m, n, k := s[0], s[1], s[2]
				if g%2 == 0 {
					a, b := randCM(m, k, int64(g*100+i)), randCM(k, n, int64(g*100+i+1))
					c := randCM(m, n, int64(g*100+i+2))
					want := refGEMM(blas.NoTrans, blas.NoTrans, 1.0, a, b, 1.0, c)
					if err := EngineRun(eng, blas.NoTrans, blas.NoTrans, 1.0, a, b, 1.0, c); err != nil {
						errs <- fmt.Errorf("f64 g%d i%d: %v", g, i, err)
						return
					}
					if d := matrix.MaxRelDiff(c, want); d != 0 {
						errs <- fmt.Errorf("f64 g%d i%d %dx%dx%d: diff %g (not bit-exact)", g, i, m, n, k, d)
						return
					}
				} else {
					a := matrix.New[float32](m, k, matrix.ColMajor)
					b := matrix.New[float32](k, n, matrix.ColMajor)
					c := matrix.New[float32](m, n, matrix.ColMajor)
					a.FillRandom(rng)
					b.FillRandom(rng)
					c.FillRandom(rng)
					want := refGEMM(blas.NoTrans, blas.NoTrans, float32(1), a, b, float32(0), c)
					if err := EngineRun(eng, blas.NoTrans, blas.NoTrans, float32(1), a, b, float32(0), c); err != nil {
						errs <- fmt.Errorf("f32 g%d i%d: %v", g, i, err)
						return
					}
					// float32 kernels reorder the accumulation, so
					// compare within the standard tolerance (float64,
					// below, is the bit-exact case).
					if d := matrix.MaxRelDiff(c, want); d > matrix.Tolerance(matrix.Single, k) {
						errs <- fmt.Errorf("f32 g%d i%d %dx%dx%d: diff %g", g, i, m, n, k, d)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// Capacity pressure must have evicted: 5 float64 shapes through a
	// 2-plan cache.
	if pc := eng.c64; pc.Len() > 2 {
		t.Fatalf("float64 cache holds %d plans, capacity 2", pc.Len())
	}
}
