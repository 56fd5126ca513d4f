package core

import (
	"context"
	"fmt"
	"testing"

	"oclgemm/internal/codegen"
	"oclgemm/internal/device"
	"oclgemm/internal/matrix"
)

// search runs a tuner search with a reduced candidate budget (tests
// trade a little argmax precision for speed).
func search(t *testing.T, d *device.Spec, prec matrix.Precision, space *Space, budget int) *Selection {
	t.Helper()
	tn, err := New(Options{Device: d, Precision: prec, Space: space, MaxCandidates: budget})
	if err != nil {
		t.Fatal(err)
	}
	sel, err := tn.Search()
	if err != nil {
		t.Fatal(err)
	}
	return sel
}

func TestProbeSize(t *testing.T) {
	p := codegen.Params{Mwg: 96, Nwg: 32, Kwg: 48}
	if got := ProbeSize(device.Tahiti(), &p); got != 4032 {
		t.Errorf("GPU probe size = %d, want 4032 (⌊4096/96⌋·96... LCM=96? no)", got)
	}
	// LCM(96,32,48) = 96; ⌊4096/96⌋·96 = 42·96 = 4032.
	if got := ProbeSize(device.SandyBridge(), &p); got != 1536 {
		t.Errorf("CPU probe size = %d, want 1536 (16·96)", got)
	}
	// LCM larger than the base still yields one block.
	big := codegen.Params{Mwg: 128, Nwg: 96, Kwg: 96}
	if got := ProbeSize(device.SandyBridge(), &big); got < big.LCM() {
		t.Errorf("probe size must be at least one LCM, got %d", got)
	}
}

func TestSizes(t *testing.T) {
	s := Sizes(96, 8192)
	if len(s) == 0 || len(s) > 64 || s[len(s)-1] > 8192 {
		t.Fatalf("Sizes(96, 8192) wrong: %v", s)
	}
	for i, n := range s {
		if n%96 != 0 {
			t.Errorf("size %d not multiple of LCM", n)
		}
		if i > 0 && n <= s[i-1] {
			t.Errorf("sizes must increase")
		}
	}
	// Tiny LCM must be thinned to a bounded number of points.
	if got := len(Sizes(8, 8192)); got > 64 {
		t.Errorf("Sizes(8, 8192) returned %d points, want <= 64", got)
	}
	if Sizes(0, 100) != nil || Sizes(128, 64) != nil {
		t.Error("degenerate inputs must return nil")
	}
}

func TestNewDefaults(t *testing.T) {
	if _, err := New(Options{}); err == nil {
		t.Error("New without device must fail")
	}
	tn, err := New(Options{Device: device.Tahiti()})
	if err != nil {
		t.Fatal(err)
	}
	if tn.opts.Finalists != 50 || tn.opts.MaxSize != 8192 || tn.opts.MaxCandidates != 25000 {
		t.Errorf("defaults wrong: %+v", tn.opts)
	}
}

func TestSearchTahitiSGEMM(t *testing.T) {
	sel := search(t, device.Tahiti(), matrix.Single, nil, 8000)
	b := sel.Best
	// The paper's best is 3047 GFlop/s (80% of 3789 peak); the model's
	// argmax should land in the same band.
	if b.Best < 2600 || b.Best > 3600 {
		t.Errorf("Tahiti SGEMM best = %.0f, want in [2600, 3600] (paper 3047)", b.Best)
	}
	if len(b.Curve) == 0 || b.BestN == 0 {
		t.Error("winner must carry its stage-2 curve")
	}
	// Every finalist's curve lies on multiples of its LCM, with BestN
	// one of its points.
	for _, f := range sel.Finalists {
		onCurve := false
		for _, pt := range f.Curve {
			if pt.N%f.Params.LCM() != 0 || pt.GFlops <= 0 {
				t.Errorf("%s: bad curve point %+v", f.Params.Name(), pt)
			}
			onCurve = onCurve || (pt.N == f.BestN && pt.GFlops == f.Best)
		}
		if !onCurve {
			t.Errorf("%s: BestN %d (%.0f GFlop/s) is not on its curve", f.Params.Name(), f.BestN, f.Best)
		}
	}
	if sel.Stats.Enumerated < 10000 {
		t.Errorf("space too small: %d", sel.Stats.Enumerated)
	}
	if sel.Stats.Rejected == 0 {
		t.Error("some candidates must fail generation (paper counts them)")
	}
	if sel.Stats.Stage2 != 50 {
		t.Errorf("stage 2 must re-measure 50 kernels, got %d", sel.Stats.Stage2)
	}
	// Block-major layouts win on all processors (paper §IV-A).
	if b.Params.LayoutA == matrix.LayoutRowMajor || b.Params.LayoutB == matrix.LayoutRowMajor {
		t.Errorf("winner should use block-major layouts, got %s/%s", b.Params.LayoutA, b.Params.LayoutB)
	}
}

func TestSearchDeterministic(t *testing.T) {
	a := search(t, device.Fermi(), matrix.Double, nil, 4000)
	b := search(t, device.Fermi(), matrix.Double, nil, 4000)
	if a.Best.Params != b.Best.Params {
		t.Errorf("search must be deterministic:\n%s\n%s", a.Best.Params.Name(), b.Best.Params.Name())
	}
	if a.Best.Best != b.Best.Best {
		t.Errorf("best performance differs: %f vs %f", a.Best.Best, b.Best.Best)
	}
}

// Winners across all devices must stay within the physical envelope and
// the paper's efficiency band.
func TestSearchEfficiencyBands(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-device search")
	}
	// Paper Table II efficiencies, with modeling slack.
	bands := map[string][2][2]float64{ // id -> {DP{lo,hi}, SP{lo,hi}}
		"tahiti":      {{0.80, 1.01}, {0.70, 0.95}},
		"cayman":      {{0.75, 1.01}, {0.70, 0.95}},
		"kepler":      {{0.90, 1.12}, {0.40, 0.75}},
		"fermi":       {{0.45, 0.70}, {0.55, 0.80}},
		"sandybridge": {{0.30, 0.52}, {0.35, 0.55}},
		"bulldozer":   {{0.25, 0.42}, {0.30, 0.50}},
	}
	for _, d := range device.All() {
		for pi, prec := range []matrix.Precision{matrix.Double, matrix.Single} {
			sel := search(t, d, prec, nil, 6000)
			eff := sel.Best.Best / d.PeakGFlops(prec)
			band := bands[d.ID][pi]
			if eff < band[0] || eff > band[1] {
				t.Errorf("%s %s: efficiency %.2f outside band [%.2f, %.2f] (best %.0f GFlop/s)",
					d.ID, prec.GEMMName(), eff, band[0], band[1], sel.Best.Best)
			}
		}
	}
}

// Paper §IV-A ablations, reproduced as searches over restricted spaces.
func TestLocalMemoryAblationSearches(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-search ablation")
	}
	// Cayman's overall winner must avoid local memory entirely.
	cay := search(t, device.Cayman(), matrix.Single, nil, 6000)
	if cay.Best.Params.UsesLocalMemory() {
		t.Errorf("Cayman winner should avoid local memory (barrier cost), got %s", cay.Best.Params.Name())
	}

	// Kepler and Fermi winners must use local memory, and a no-LDS
	// search must land clearly below (paper: 1440 → 1150 on Kepler).
	for _, id := range []string{"kepler", "fermi"} {
		d, _ := device.ByID(id)
		full := search(t, d, matrix.Single, nil, 6000)
		if !full.Best.Params.UsesLocalMemory() {
			t.Errorf("%s winner should use local memory, got %s", id, full.Best.Params.Name())
		}
		sp := NoLocalMemorySpace(d)
		no := search(t, d, matrix.Single, &sp, 6000)
		ratio := no.Best.Best / full.Best.Best
		if ratio > 0.92 || ratio < 0.30 {
			t.Errorf("%s no-LDS/full ratio %.2f outside plausible band (paper ~0.80 on Kepler)", id, ratio)
		}
	}

	// CPUs: local memory usage must not matter much.
	snb := device.SandyBridge()
	full := search(t, snb, matrix.Single, nil, 6000)
	sp := NoLocalMemorySpace(snb)
	no := search(t, snb, matrix.Single, &sp, 6000)
	if r := no.Best.Best / full.Best.Best; r < 0.85 || r > 1.1 {
		t.Errorf("CPU local-memory effect should be small, ratio %.2f", r)
	}
}

// Bulldozer: no PL kernel may appear in the DGEMM finalists (they fail
// to execute, paper §IV-A).
func TestBulldozerFinalistsExcludePL(t *testing.T) {
	sel := search(t, device.Bulldozer(), matrix.Double, nil, 5000)
	for _, f := range sel.Finalists {
		if f.Params.Algorithm == codegen.PL {
			t.Fatalf("PL DGEMM kernel survived on Bulldozer: %s", f.Params.Name())
		}
	}
}

func TestPreviousStudySpaceRestrictions(t *testing.T) {
	d := device.Tahiti()
	s := PreviousStudySpace(d)
	checked := 0
	s.Enumerate(d, matrix.Single, func(p codegen.Params) bool {
		checked++
		if p.Algorithm != codegen.BA {
			t.Fatalf("previous-study space must be BA only, got %s", p.Algorithm)
		}
		if p.SharedA && p.SharedB {
			t.Fatal("previous-study generator could not share both matrices")
		}
		if p.StrideM || p.StrideN {
			t.Fatal("previous-study generator had no non-unit stride")
		}
		for _, v := range []int{p.Mwg, p.Nwg, p.Kwg} {
			if v&(v-1) != 0 {
				t.Fatalf("previous-study blocking must be powers of two, got %d", v)
			}
		}
		return checked < 5000
	})
	if checked == 0 {
		t.Fatal("previous-study space is empty")
	}
}

// The previous-study space must not beat the full space (Fig. 9:
// "This study" ≥ "Our previous study").
func TestPreviousStudyNotFaster(t *testing.T) {
	d := device.Tahiti()
	full := search(t, d, matrix.Single, nil, 6000)
	prev := PreviousStudySpace(d)
	old := search(t, d, matrix.Single, &prev, 6000)
	// Both searches subsample their spaces, so a small sampling wobble
	// is possible; the restricted space must never win by more than 2%.
	if old.Best.Best > full.Best.Best*1.02 {
		t.Errorf("previous-study space (%.0f) must not beat the full space (%.0f)",
			old.Best.Best, full.Best.Best)
	}
}

func TestAlgorithmSpace(t *testing.T) {
	d := device.Fermi()
	for _, a := range codegen.Algorithms {
		s := AlgorithmSpace(d, a)
		n := 0
		s.Enumerate(d, matrix.Single, func(p codegen.Params) bool {
			n++
			if p.Algorithm != a {
				t.Fatalf("AlgorithmSpace(%s) yielded %s", a, p.Algorithm)
			}
			return n < 1000
		})
		if n == 0 {
			t.Errorf("AlgorithmSpace(%s) is empty", a)
		}
	}
}

func TestCustomEvaluator(t *testing.T) {
	// An evaluator that loves Kwi == 8 must make the tuner select it.
	eval := func(d *device.Spec, p *codegen.Params, n int) (float64, error) {
		if p.Kwi == 8 {
			return 1000 + float64(n)/100, nil
		}
		return 10, nil
	}
	tn, err := New(Options{Device: device.Tahiti(), Precision: matrix.Single,
		Evaluator: eval, MaxCandidates: 2000})
	if err != nil {
		t.Fatal(err)
	}
	sel, err := tn.Search()
	if err != nil {
		t.Fatal(err)
	}
	if sel.Best.Params.Kwi != 8 {
		t.Errorf("tuner ignored the evaluator: picked Kwi=%d", sel.Best.Params.Kwi)
	}
	// Stage 2 prefers larger sizes with this evaluator.
	if sel.Best.BestN != sel.Best.Curve[len(sel.Best.Curve)-1].N {
		t.Errorf("BestN should be the largest size, got %d", sel.Best.BestN)
	}
}

func TestEvaluatorErrorsNotCounted(t *testing.T) {
	// Evaluator failing for DB kernels: they sink to the bottom.
	eval := func(d *device.Spec, p *codegen.Params, n int) (float64, error) {
		if p.Algorithm == codegen.DB {
			return 0, fmt.Errorf("fails in testing")
		}
		return 100, nil
	}
	tn, err := New(Options{Device: device.Tahiti(), Precision: matrix.Single,
		Evaluator: eval, MaxCandidates: 3000})
	if err != nil {
		t.Fatal(err)
	}
	sel, err := tn.Search()
	if err != nil {
		t.Fatal(err)
	}
	if sel.Best.Params.Algorithm == codegen.DB {
		t.Error("a kernel that fails testing must not be selected")
	}
}

func TestCurve(t *testing.T) {
	tn, err := New(Options{Device: device.Tahiti(), Precision: matrix.Double, MaxSize: 6144})
	if err != nil {
		t.Fatal(err)
	}
	r := &Result{Params: codegen.Params{
		Precision: matrix.Double, Algorithm: codegen.BA,
		Mwg: 96, Nwg: 32, Kwg: 48, MdimC: 16, NdimC: 16, MdimA: 16, NdimB: 16,
		Kwi: 2, VectorWidth: 2, SharedB: true,
		LayoutA: matrix.LayoutCBL, LayoutB: matrix.LayoutCBL,
	}}
	tn.curve(context.Background(), r)
	if len(r.Curve) == 0 {
		t.Fatal("empty curve")
	}
	onCurve := false
	for _, pt := range r.Curve {
		if pt.N%r.Params.LCM() != 0 || pt.N > 6144 || pt.GFlops <= 0 {
			t.Errorf("bad curve point %+v", pt)
		}
		onCurve = onCurve || (pt.N == r.BestN && pt.GFlops == r.Best)
	}
	if !onCurve {
		t.Errorf("BestN %d (%.0f GFlop/s) is not on the curve", r.BestN, r.Best)
	}
}
