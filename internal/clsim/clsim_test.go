package clsim

import (
	"errors"
	"strings"
	"testing"

	"oclgemm/internal/device"
)

func testDevice() *Device { return &Device{Spec: device.Tahiti()} }

func TestDefaultPlatform(t *testing.T) {
	p := DefaultPlatform()
	if len(p.Devices) != 6 {
		t.Fatalf("platform has %d devices, want 6", len(p.Devices))
	}
	if p.Devices[0].Name() != "Tahiti (Radeon HD 7970)" {
		t.Errorf("first device = %q", p.Devices[0].Name())
	}
}

func TestBufferViewsAliasSameStorage(t *testing.T) {
	ctx := NewContext(testDevice())
	q := NewQueue(ctx)
	b, err := ctx.CreateBuffer(64)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Release()
	f64 := b.Float64()
	f32 := b.Float32()
	if len(f64) != 8 || len(f32) != 16 {
		t.Fatalf("view lengths %d/%d, want 8/16", len(f64), len(f32))
	}
	f64[0] = 1.0
	// 1.0 in float64 is 0x3FF0000000000000; its upper 32 bits alias the
	// second float32 slot on little-endian storage.
	if f32[1] == 0 {
		t.Error("views do not alias the same storage")
	}
	host := make([]float64, 8)
	if err := q.ReadFloat64(b, 0, host); err != nil {
		t.Fatal(err)
	}
	if host[0] != 1.0 {
		t.Errorf("read back %v, want 1.0", host[0])
	}
}

func TestBufferBounds(t *testing.T) {
	ctx := NewContext(testDevice())
	q := NewQueue(ctx)
	b, _ := ctx.CreateBuffer(32)
	defer b.Release()
	if err := q.WriteFloat64(b, 2, []float64{1, 2, 3}); err == nil {
		t.Error("out-of-bounds write must fail")
	}
	if err := q.ReadFloat32(b, 6, make([]float32, 4)); err == nil {
		t.Error("out-of-bounds read must fail")
	}
	if err := q.WriteFloat64(b, -1, []float64{1}); err == nil {
		t.Error("negative offset must fail")
	}
	if _, err := ctx.CreateBuffer(0); err == nil {
		t.Error("zero-size buffer must fail")
	}
}

func TestGlobalMemoryAccounting(t *testing.T) {
	ctx := NewContext(testDevice()) // Tahiti: 3 GB
	if _, err := ctx.CreateBuffer(4 << 30); err == nil {
		t.Fatal("allocation above device memory must fail")
	}
	b1, err := ctx.CreateBuffer(1 << 30)
	if err != nil {
		t.Fatal(err)
	}
	if ctx.AllocatedBytes() != 1<<30 || ctx.LiveBuffers() != 1 {
		t.Errorf("accounting wrong after alloc: %d bytes, %d buffers", ctx.AllocatedBytes(), ctx.LiveBuffers())
	}
	b1.Release()
	b1.Release() // idempotent
	if ctx.AllocatedBytes() != 0 || ctx.LiveBuffers() != 0 {
		t.Errorf("accounting wrong after release")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("use after release must panic")
			}
		}()
		b1.Float64()
	}()
}

func TestNDRangeValidate(t *testing.T) {
	d := testDevice() // MaxWGSize 256
	good := NDRange{Global: [2]int{64, 64}, Local: [2]int{16, 16}}
	if err := good.Validate(d); err != nil {
		t.Errorf("valid range rejected: %v", err)
	}
	if good.GroupSize() != 256 || good.TotalGroups() != 16 {
		t.Errorf("geometry wrong: %d %d", good.GroupSize(), good.TotalGroups())
	}
	bad := NDRange{Global: [2]int{60, 64}, Local: [2]int{16, 16}}
	if err := bad.Validate(d); err == nil {
		t.Error("non-divisible range must fail")
	}
	big := NDRange{Global: [2]int{64, 64}, Local: [2]int{32, 16}}
	if err := big.Validate(d); err == nil {
		t.Error("oversized work-group must fail on Tahiti (max 256)")
	}
	neg := NDRange{Global: [2]int{0, 64}, Local: [2]int{16, 16}}
	if err := neg.Validate(d); err == nil {
		t.Error("zero global size must fail")
	}
}

// idKernel writes each item's flattened global id — checks 2-D indexing.
type idKernel struct{ out []float32 }

func (k *idKernel) Name() string { return "ids" }
func (k *idKernel) RunGroup(g *Group) {
	w := g.NumGroups(0) * g.LocalSize(0)
	for ly := 0; ly < g.LocalSize(1); ly++ {
		for lx := 0; lx < g.LocalSize(0); lx++ {
			k.out[g.GlobalID(1, ly)*w+g.GlobalID(0, lx)] =
				float32(g.ID(0) + 100*g.ID(1) + 10000*(ly*g.LocalSize(0)+lx))
		}
	}
}

// reverseKernel reverses a vector within each work-group through local
// memory across one barrier, its items run one by one up to the
// barrier and reported with Arrive — exercises ids, local memory and
// per-item barrier counting.
type reverseKernel struct {
	data []float32
}

func (k *reverseKernel) Name() string { return "reverse" }
func (k *reverseKernel) RunGroup(g *Group) {
	n := g.LocalSize(0)
	g.TakeLocal(4 * n)
	lm := make([]float32, n)
	for lx := 0; lx < n; lx++ {
		lm[lx] = k.data[g.GlobalID(0, lx)]
	}
	g.Arrive(n)
	for lx := 0; lx < n; lx++ {
		k.data[g.GlobalID(0, lx)] = lm[n-1-lx]
	}
}

// Groups run concurrently on several workers must each see only their
// own local memory, and the launch statistics must sum over workers.
func TestConcurrentExecutorReverse(t *testing.T) {
	ctx := NewContext(testDevice())
	q := NewQueue(ctx)
	q.Workers = 4
	n, wg := 64, 16
	data := make([]float32, n)
	for i := range data {
		data[i] = float32(i)
	}
	k := &reverseKernel{data: data}
	nd := NDRange{Global: [2]int{n, 1}, Local: [2]int{wg, 1}}
	if err := q.Run(k, nd); err != nil {
		t.Fatal(err)
	}
	for g := 0; g < n/wg; g++ {
		for i := 0; i < wg; i++ {
			want := float32(g*wg + wg - 1 - i)
			if data[g*wg+i] != want {
				t.Fatalf("data[%d] = %v, want %v", g*wg+i, data[g*wg+i], want)
			}
		}
	}
	st := q.Stats()
	if st.KernelLaunches != 1 || st.WorkGroupsRun != 4 || st.WorkItemsRun != 64 {
		t.Errorf("stats wrong: %+v", st)
	}
	if st.BarriersHit != 64 { // every work-item hit one barrier
		t.Errorf("barriers = %d, want 64", st.BarriersHit)
	}
}

func TestTwoDimensionalIndexing(t *testing.T) {
	ctx := NewContext(testDevice())
	q := NewQueue(ctx)
	nd := NDRange{Global: [2]int{8, 6}, Local: [2]int{4, 3}}
	k := &idKernel{out: make([]float32, 48)}
	if err := q.Run(k, nd); err != nil {
		t.Fatal(err)
	}
	// Item at global (5, 4): group (1, 1), local (1, 1), linear 1*4+1=5.
	got := k.out[4*8+5]
	if got != float32(1+100*1+10000*5) {
		t.Errorf("indexing wrong: got %v", got)
	}
}

// panicKernel panics with a non-error value in one group.
type panicKernel struct{}

func (panicKernel) Name() string { return "panics" }
func (panicKernel) RunGroup(g *Group) {
	if g.ID(0) == 1 {
		panic("boom")
	}
}

func TestWorkItemPanicBecomesError(t *testing.T) {
	ctx := NewContext(testDevice())
	q := NewQueue(ctx)
	nd := NDRange{Global: [2]int{8, 1}, Local: [2]int{4, 1}}
	if err := q.Run(panicKernel{}, nd); err == nil || !strings.Contains(err.Error(), "kernel panic: boom") {
		t.Errorf("panic in kernel code must surface as error, got %v", err)
	}
}

// lockstepSum: GroupKernel computing per-group sums via phases.
type lockstepSum struct {
	in  []float64
	out []float64
}

func (k *lockstepSum) Name() string { return "lockstep-sum" }
func (k *lockstepSum) RunGroup(g *Group) {
	g.TakeLocal(8 * g.Size())
	partial := make([]float64, g.Size())
	for lx := range partial {
		partial[lx] = k.in[g.GlobalID(0, lx)]
	}
	g.PhaseBarrier()
	var s float64
	for _, v := range partial {
		s += v
	}
	k.out[g.ID(0)] = s
	g.PhaseBarrier()
}

func TestLockstepExecutor(t *testing.T) {
	ctx := NewContext(testDevice())
	q := NewQueue(ctx)
	in := make([]float64, 32)
	for i := range in {
		in[i] = float64(i)
	}
	k := &lockstepSum{in: in, out: make([]float64, 4)}
	nd := NDRange{Global: [2]int{32, 1}, Local: [2]int{8, 1}}
	if err := q.RunLockstep(k, nd); err != nil {
		t.Fatal(err)
	}
	wants := []float64{28, 92, 156, 220}
	for i, w := range wants {
		if k.out[i] != w {
			t.Errorf("group %d sum = %v, want %v", i, k.out[i], w)
		}
	}
	if st := q.Stats(); st.BarriersHit != 8 { // 4 groups × 2 phases
		t.Errorf("lockstep barriers = %d, want 8", st.BarriersHit)
	}
}

// A queue's LaunchHook must be able to veto launches (the fault
// injector's simulated compile/launch failures), and a passing hook
// must observe the kernel name without disturbing execution.
func TestLaunchHookVetoesLaunches(t *testing.T) {
	ctx := NewContext(testDevice())
	q := NewQueue(ctx)
	var seen []string
	q.LaunchHook = func(name string) error {
		seen = append(seen, name)
		if name == "lockstep-sum" {
			return errors.New("injected launch failure")
		}
		return nil
	}
	in := make([]float64, 32)
	k := &lockstepSum{in: in, out: make([]float64, 4)}
	nd := NDRange{Global: [2]int{32, 1}, Local: [2]int{8, 1}}
	if err := q.RunLockstep(k, nd); err == nil {
		t.Fatal("hooked launch must fail")
	}
	if st := q.Stats(); st.KernelLaunches != 0 {
		t.Errorf("vetoed launch must not count, got %d launches", st.KernelLaunches)
	}

	ids := &idKernel{out: make([]float32, 16)}
	if err := q.Run(ids, NDRange{Global: [2]int{4, 4}, Local: [2]int{2, 2}}); err != nil {
		t.Fatalf("non-vetoed kernel must run: %v", err)
	}
	if len(seen) != 2 || seen[0] != "lockstep-sum" || seen[1] != "ids" {
		t.Errorf("hook saw %v, want [lockstep-sum ids]", seen)
	}
}

// fastSum is lockstepSum the micro-kernel way: local memory charged
// with TakeLocal against a slab kept across launches, so a warm launch
// allocates nothing.
type fastSum struct {
	in, out []float64
	partial []float64
}

func (k *fastSum) Name() string { return "fast-sum" }
func (k *fastSum) RunGroup(g *Group) {
	g.TakeLocal(8 * g.Size())
	for lx := range k.partial {
		k.partial[lx] = k.in[g.GlobalID(0, lx)]
	}
	g.PhaseBarrier()
	var s float64
	for _, v := range k.partial {
		s += v
	}
	k.out[g.ID(0)] = s
	g.PhaseBarrier()
}

type takeLocalPanic struct{}

func (takeLocalPanic) Name() string { return "take-local-panic" }
func (takeLocalPanic) RunGroup(g *Group) {
	g.TakeLocal(8 << 22) // exceeds every device
}

// TakeLocal is the one local-memory charge: past the device capacity
// the launch fails with ErrLocalMemExceeded, though the kernel
// allocates no storage. TestWorkersSerialErrorsAndStats holds the
// serial path to the same limit.
func TestTakeLocalEnforcesLimit(t *testing.T) {
	q := NewQueue(NewContext(testDevice()))
	nd := NDRange{Global: [2]int{8, 1}, Local: [2]int{8, 1}}
	err := q.RunLockstep(takeLocalPanic{}, nd)
	if !errors.Is(err, ErrLocalMemExceeded) {
		t.Errorf("want ErrLocalMemExceeded, got %v", err)
	}
}

// splitLocal charges local memory in two parts, as the GEMM kernel
// charges its A and B tiles: each part alone fits the device.
type splitLocal struct{ parts [2]int }

func (splitLocal) Name() string { return "split-local" }
func (k splitLocal) RunGroup(g *Group) {
	g.TakeLocal(k.parts[0])
	g.PhaseBarrier()
	g.TakeLocal(k.parts[1])
}

// A lockstep group is held to the device's local memory by the sum of
// its charges, and every group to it afresh: two halves of the capacity
// run in each of several groups, one byte more fails the launch.
func TestLockstepLocalLimit(t *testing.T) {
	q := NewQueue(NewContext(testDevice()))
	half := testDevice().Spec.LocalMemBytes() / 2
	nd := NDRange{Global: [2]int{32, 1}, Local: [2]int{8, 1}}
	if err := q.RunLockstep(splitLocal{parts: [2]int{half, half}}, nd); err != nil {
		t.Fatalf("charges summing to the capacity must run: %v", err)
	}
	err := q.RunLockstep(splitLocal{parts: [2]int{half, half + 1}}, nd)
	if !errors.Is(err, ErrLocalMemExceeded) {
		t.Errorf("want ErrLocalMemExceeded, got %v", err)
	}
}

// A warm serial lockstep launch must allocate nothing: Group frames
// are recycled through the queue's free list and the group loop runs
// without closures. This is the executor's half of the engine-level
// zero-allocation guarantee on the warm kernel phase.
func TestSerialLockstepZeroAlloc(t *testing.T) {
	q := NewQueue(NewContext(testDevice()))
	q.Workers = 1
	k := &fastSum{in: make([]float64, 32), out: make([]float64, 4), partial: make([]float64, 8)}
	nd := NDRange{Global: [2]int{32, 1}, Local: [2]int{8, 1}}
	if err := q.RunLockstep(k, nd); err != nil { // warm the free list
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(10, func() {
		if err := q.RunLockstep(k, nd); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("warm serial RunLockstep allocated %.1f objects/op, want 0", allocs)
	}
}
