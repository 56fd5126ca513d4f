package kernels

import (
	"math/rand"
	"testing"
	"testing/quick"

	"oclgemm/internal/clsim"
	"oclgemm/internal/codegen"
	"oclgemm/internal/device"
	"oclgemm/internal/matrix"
	"oclgemm/internal/obs"
	"oclgemm/internal/tunedb"
)

// refElementwise is the parameter-free oracle of the micro-kernel: per
// C element, sum a·b over k ascending skipping a == 0, then α·acc, then
// +β·C only when β ≠ 0. Every schedule, layout and stride mode must
// reproduce it bit for bit, because none of them changes the per-element
// accumulation order.
func refElementwise[T matrix.Scalar](alpha T, a, b *matrix.Matrix[T], beta T, c *matrix.Matrix[T]) []T {
	out := make([]T, c.Rows*c.Cols)
	for i := 0; i < c.Rows; i++ {
		for j := 0; j < c.Cols; j++ {
			var acc T
			for k := 0; k < a.Cols; k++ {
				if av := a.At(i, k); av != 0 {
					acc += T(av * b.At(k, j))
				}
			}
			v := T(alpha * acc)
			if beta != 0 {
				v += T(beta * c.At(i, j))
			}
			out[i*c.Cols+j] = v
		}
	}
	return out
}

// launch packs row-major A (M×K) and B (K×N) into the kernel's layouts,
// runs the GEMM kernel on the lockstep executor, and returns the raw C
// buffer plus the queue statistics of the launch.
func launch[T matrix.Scalar](t *testing.T, p codegen.Params, m, n, k int,
	alpha, beta T, a, b, c *matrix.Matrix[T]) ([]T, clsim.QueueStats) {
	t.Helper()
	at := matrix.Pack(a, true, k, m, p.Kwg, p.Mwg, p.LayoutA)
	bp := matrix.Pack(b, false, k, n, p.Kwg, p.Nwg, p.LayoutB)
	cc := c.Clone()
	kern, err := NewGEMM(p, m, n, k, alpha, at.Data, bp.Data, beta, cc.Data)
	if err != nil {
		t.Fatalf("NewGEMM %s: %v", p.Name(), err)
	}
	q := clsim.NewQueue(clsim.NewContext(&clsim.Device{Spec: device.Tahiti()}))
	if err := q.RunLockstep(kern, kern.NDRange()); err != nil {
		t.Fatalf("RunLockstep %s: %v", p.Name(), err)
	}
	return cc.Data, q.Stats()
}

// randOperands draws M×K, K×N and M×N operands in [-1, 1) and zeroes
// every seventh element of A so the a == 0 skip is exercised.
func randOperands[T matrix.Scalar](m, n, k int, seed int64) (a, b, c *matrix.Matrix[T]) {
	rng := rand.New(rand.NewSource(seed))
	a = matrix.New[T](m, k, matrix.RowMajor)
	b = matrix.New[T](k, n, matrix.RowMajor)
	c = matrix.New[T](m, n, matrix.RowMajor)
	a.FillRandom(rng)
	b.FillRandom(rng)
	c.FillRandom(rng)
	for i := 0; i < len(a.Data); i += 7 {
		a.Data[i] = 0
	}
	return
}

// checkBitExact runs one parameter point and demands every C element be
// bit-identical to refElementwise. It returns the launch statistics.
func checkBitExact[T matrix.Scalar](t *testing.T, p codegen.Params, m, n, k int, alpha, beta T, seed int64) clsim.QueueStats {
	t.Helper()
	if err := p.Validate(); err != nil {
		t.Fatalf("invalid test params %s: %v", p.Name(), err)
	}
	a, b, c := randOperands[T](m, n, k, seed)
	got, stats := launch(t, p, m, n, k, alpha, beta, a, b, c)
	want := refElementwise(alpha, a, b, beta, c)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s β=%v: element %d not bit-identical: kernel %v, reference %v", p.Name(), beta, i, got[i], want[i])
		}
	}
	return stats
}

var strideModes = [][2]bool{{false, false}, {true, false}, {false, true}, {true, true}}

// Every schedule × shared-memory mode × stride mode matches the
// element-wise reference bit for bit, on both β branches.
func TestFastMatchesGenericAllSchedules(t *testing.T) {
	for _, alg := range []codegen.Algorithm{codegen.BA, codegen.PL, codegen.DB} {
		for _, sh := range [][2]bool{{false, false}, {true, false}, {false, true}, {true, true}} {
			for _, st := range strideModes {
				p := base()
				p.Algorithm = alg
				p.SharedA, p.SharedB = sh[0], sh[1]
				p.StrideM, p.StrideN = st[0], st[1]
				if alg == codegen.DB {
					p.Kwg = 8 // even halves
					if !p.UsesLocalMemory() {
						continue // DB requires local memory
					}
				}
				m, n, k := 16, 24, 32
				checkBitExact(t, p, m, n, k, 1.25, -0.5, 21)
				checkBitExact(t, p, m, n, k, 2.0, 0.0, 22) // beta == 0 branch
			}
		}
	}
}

func TestFastMatchesGenericLayouts(t *testing.T) {
	for _, la := range []matrix.Layout{matrix.LayoutRowMajor, matrix.LayoutCBL, matrix.LayoutRBL} {
		for _, lb := range []matrix.Layout{matrix.LayoutRowMajor, matrix.LayoutCBL, matrix.LayoutRBL} {
			for _, st := range strideModes {
				p := base()
				p.LayoutA, p.LayoutB = la, lb
				p.StrideM, p.StrideN = st[0], st[1]
				p.SharedB = false // exercise direct global reads through panelGeom
				checkBitExact(t, p, 24, 16, 12, 1.0, 1.0, 23)
			}
		}
	}
}

func TestFastMatchesGenericVectorWidths(t *testing.T) {
	for _, vw := range []int{1, 2, 4} {
		for _, strideN := range []bool{false, true} {
			p := base()
			p.Nwg = 16 // Nwi = 4
			p.VectorWidth = vw
			p.StrideN = strideN // vw scales the strided pitch
			checkBitExact(t, p, 16, 32, 12, -1.5, 0.75, 24)
		}
	}
}

func TestFastMatchesGenericFloat32(t *testing.T) {
	for _, alg := range []codegen.Algorithm{codegen.BA, codegen.PL} {
		for _, st := range strideModes {
			p := base()
			p.Precision = matrix.Single
			p.Algorithm = alg
			p.StrideM, p.StrideN = st[0], st[1]
			checkBitExact[float32](t, p, 16, 16, 16, 1.5, -0.25, 25)
		}
	}
}

// Property: a random walk over the valid parameter grid (all three
// algorithms, both precisions, stride modes, layouts, shared modes and
// vector widths) never moves a C element by a single bit from the
// element-wise reference.
func TestFastGenericPropertyBitIdentical(t *testing.T) {
	f := func(algSel, mdim, ndim, mwiS, nwiS, kwgS, kwiS, vwS, shSel, stSel, layA, layB uint8, single bool, seed int64) bool {
		p := codegen.Params{
			Precision: matrix.Double,
			Algorithm: codegen.Algorithms[algSel%3],
			MdimC:     []int{2, 4}[mdim%2],
			NdimC:     []int{2, 4}[ndim%2],
			Kwi:       []int{1, 2}[kwiS%2],
			SharedA:   shSel&1 != 0,
			SharedB:   shSel&2 != 0,
			StrideM:   stSel&1 != 0,
			StrideN:   stSel&2 != 0,
			LayoutA:   []matrix.Layout{matrix.LayoutRowMajor, matrix.LayoutCBL, matrix.LayoutRBL}[layA%3],
			LayoutB:   []matrix.Layout{matrix.LayoutRowMajor, matrix.LayoutCBL, matrix.LayoutRBL}[layB%3],
		}
		if single {
			p.Precision = matrix.Single
		}
		p.Mwg = p.MdimC * (int(mwiS%3) + 1)
		p.Nwg = p.NdimC * []int{2, 4}[nwiS%2]
		p.Kwg = 4 * (int(kwgS%2) + 1)
		p.VectorWidth = []int{1, 2}[vwS%2]
		p.MdimA = p.MdimC
		p.NdimB = p.NdimC
		if p.Algorithm == codegen.DB && !p.UsesLocalMemory() {
			p.SharedB = true
		}
		if err := p.Validate(); err != nil {
			return true // not a valid draw; skip
		}
		m, n, k := p.Mwg*2, p.Nwg, p.Kwg*2
		if single {
			return propertyBitExact[float32](t, p, m, n, k, seed)
		}
		return propertyBitExact[float64](t, p, m, n, k, seed)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 160}); err != nil {
		t.Error(err)
	}
}

func propertyBitExact[T matrix.Scalar](t *testing.T, p codegen.Params, m, n, k int, seed int64) bool {
	a, b, c := randOperands[T](m, n, k, seed)
	got, _ := launch(t, p, m, n, k, 1.25, -0.5, a, b, c)
	want := refElementwise(1.25, a, b, -0.5, c)
	for i := range want {
		if got[i] != want[i] {
			t.Logf("%s: element %d: kernel %v, reference %v", p.Name(), i, got[i], want[i])
			return false
		}
	}
	return true
}

// paperGoldens pins the launch statistics of every Table II kernel on a
// 2×2 work-group grid with K = 3·Kwg. The barrier counts are the
// schedule's phase structure (Fig. 4-6) and must not move when the
// micro-kernel changes.
var paperGoldens = map[string]struct{ barriers, groups int64 }{
	"tahiti/DGEMM":      {28, 4},
	"tahiti/SGEMM":      {40, 4},
	"cayman/DGEMM":      {16, 4},
	"cayman/SGEMM":      {16, 4},
	"kepler/DGEMM":      {40, 4},
	"kepler/SGEMM":      {56, 4},
	"fermi/DGEMM":       {56, 4},
	"fermi/SGEMM":       {40, 4},
	"sandybridge/DGEMM": {52, 4},
	"sandybridge/SGEMM": {28, 4},
	"bulldozer/DGEMM":   {52, 4},
	"bulldozer/SGEMM":   {16, 4},
}

// All 12 paper Table II kernels, both β branches: bit-identical to the
// element-wise reference, with the barrier and work-group counts pinned.
func TestPaperTableIIKernelsBitIdentical(t *testing.T) {
	for _, rec := range tunedb.PaperTableII().Records {
		p, err := rec.Params()
		if err != nil {
			t.Fatal(err)
		}
		name := rec.Device + "/" + p.Precision.GEMMName()
		m, n, k := 2*p.Mwg, 2*p.Nwg, 3*p.Kwg
		for _, beta := range []float64{0, -0.5} {
			var st clsim.QueueStats
			if p.Precision == matrix.Single {
				st = checkBitExact(t, p, m, n, k, float32(1.5), float32(beta), 31)
			} else {
				st = checkBitExact(t, p, m, n, k, 1.5, beta, 31)
			}
			want, ok := paperGoldens[name]
			if !ok {
				t.Errorf("%s: no golden", name)
				continue
			}
			if st.BarriersHit != want.barriers || st.WorkGroupsRun != want.groups {
				t.Errorf("%s β=%v: barriers %d groups %d, golden %d / %d",
					name, beta, st.BarriersHit, st.WorkGroupsRun, want.barriers, want.groups)
			}
		}
	}
}

// Pack: the row-run copy kernel must be bit-identical to a per-element
// reference that mirrors the generated OpenCL source one work-item at a
// time, for every layout, transpose flag and partial-tile geometry
// (source smaller than the padded destination). The lockstep queue
// must count one barrier per work-group: the one ending the pack phase.
func TestPackFastMatchesGeneric(t *testing.T) {
	for _, layout := range []matrix.Layout{matrix.LayoutRowMajor, matrix.LayoutCBL, matrix.LayoutRBL} {
		for _, transpose := range []bool{false, true} {
			for _, dims := range [][2]int{{13, 9}, {16, 8}, {3, 17}} {
				src := matrix.New[float64](dims[0], dims[1], matrix.RowMajor)
				src.FillRandom(rand.New(rand.NewSource(27)))
				dr, dc := dims[0], dims[1]
				if transpose {
					dr, dc = dc, dr
				}
				r := matrix.PadDim(dr, 4)
				c := matrix.PadDim(dc, 8)
				pp := codegen.PackParams{
					Precision: matrix.Double, Layout: layout,
					Rb: 4, Cb: 8, Transpose: transpose,
				}
				dst := make([]float64, r*c)
				pk, err := NewPack(pp, src.Rows, src.Cols, src.Stride, r, c, src.Data, dst)
				if err != nil {
					t.Fatal(err)
				}
				q := clsim.NewQueue(clsim.NewContext(&clsim.Device{Spec: device.Tahiti()}))
				if err := q.RunLockstep(pk, pk.NDRange()); err != nil {
					t.Fatal(err)
				}

				want := matrix.NewBlocked[float64](r, c, 4, 8, layout)
				for gr := 0; gr < r; gr++ {
					for gc := 0; gc < c; gc++ {
						var v float64
						if transpose {
							if gc < src.Rows && gr < src.Cols {
								v = src.Data[gc*src.Stride+gr]
							}
						} else if gr < src.Rows && gc < src.Cols {
							v = src.Data[gr*src.Stride+gc]
						}
						want.Set(gr, gc, v)
					}
				}
				for i := range want.Data {
					if dst[i] != want.Data[i] {
						t.Fatalf("layout=%v transpose=%v %dx%d: element %d differs: kernel %v, reference %v",
							layout, transpose, dims[0], dims[1], i, dst[i], want.Data[i])
					}
				}
				if st := q.Stats(); st.BarriersHit != st.WorkGroupsRun {
					t.Errorf("layout=%v transpose=%v: pack barriers %d, want one per work-group (%d)",
						layout, transpose, st.BarriersHit, st.WorkGroupsRun)
				}
			}
		}
	}
}

// Pack with a strided source view.
func TestPackFastStridedSource(t *testing.T) {
	parent := matrix.New[float64](16, 16, matrix.RowMajor)
	parent.FillSequential()
	v := parent.View(3, 2, 7, 6)
	pp := codegen.PackParams{Precision: matrix.Double, Layout: matrix.LayoutRBL, Rb: 4, Cb: 4}
	got := runPack(t, pp, v, 8, 8)
	want := matrix.Pack(v, false, 8, 8, 4, 4, matrix.LayoutRBL)
	for i := range want.Data {
		if got[i] != want.Data[i] {
			t.Fatalf("strided fast pack differs at %d", i)
		}
	}
}

// Selection counters: every executed work-group, unit-stride or
// strided, increments the unit micro-kernel counter.
func TestMicroSelectionCounters(t *testing.T) {
	reg := obs.NewRegistry()
	a, b, c := randMats(16, 16, 12, 28)
	run := func(p codegen.Params) {
		at := matrix.Pack(a, true, 12, 16, p.Kwg, p.Mwg, p.LayoutA)
		bp := matrix.Pack(b, false, 12, 16, p.Kwg, p.Nwg, p.LayoutB)
		cc := c.Clone()
		kern, err := NewGEMM(p, 16, 16, 12, 1.0, at.Data, bp.Data, 0.0, cc.Data)
		if err != nil {
			t.Fatal(err)
		}
		kern.SetObserver(reg)
		q := clsim.NewQueue(clsim.NewContext(&clsim.Device{Spec: device.Tahiti()}))
		if err := q.RunLockstep(kern, kern.NDRange()); err != nil {
			t.Fatal(err)
		}
	}
	run(base()) // 2×2 groups
	strided := base()
	strided.StrideM = true
	run(strided) // 2×2 more groups, same micro-kernel

	if got := reg.Snapshot().Counters["kernels.gemm.groups{micro=unit}"]; got != 8 {
		t.Errorf("unit group counter = %d, want 8", got)
	}
}
