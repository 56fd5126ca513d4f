package core

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"

	"oclgemm/internal/codegen"
	"oclgemm/internal/device"
	"oclgemm/internal/matrix"
)

// paperTahitiSGEMM is the paper's published Tahiti SGEMM kernel — a
// known-good configuration the gate must pass.
var paperTahitiSGEMM = codegen.Params{
	Precision: matrix.Single, Algorithm: codegen.BA,
	Mwg: 96, Nwg: 96, Kwg: 16, MdimC: 16, NdimC: 16, MdimA: 16, NdimB: 16,
	Kwi: 2, VectorWidth: 1, SharedA: true, SharedB: true,
	LayoutA: matrix.LayoutCBL, LayoutB: matrix.LayoutCBL,
}

func TestVerifyParamsPassesGoodKernel(t *testing.T) {
	p := paperTahitiSGEMM
	if err := VerifyParams(device.Tahiti(), &p); err != nil {
		t.Fatalf("published kernel must pass the correctness gate: %v", err)
	}
}

func TestVerifyParamsRejectsInvalidParams(t *testing.T) {
	p := paperTahitiSGEMM
	p.Mwg = 7 // not divisible by MdimC: fails generation checks
	err := VerifyParams(device.Tahiti(), &p)
	if !errors.Is(err, ErrCompile) {
		t.Fatalf("invalid params must classify as compile failure, got %v", err)
	}
}

// With the gate on and a verifier that rejects a property of the
// ranking's top kernels, the search must disqualify them, refill the
// finalist set, and never select a rejected kernel.
func TestCorrectnessGateDisqualifiesAndRefills(t *testing.T) {
	// Kwi==2 kernels score best; the verifier declares them all wrong.
	eval := func(d *device.Spec, p *codegen.Params, n int) (float64, error) {
		if p.Kwi == 2 {
			return 1000, nil
		}
		return 100, nil
	}
	verifier := func(d *device.Spec, p *codegen.Params) error {
		if p.Kwi == 2 {
			return ErrWrongResult
		}
		return nil
	}
	tn, err := New(Options{Device: device.Tahiti(), Precision: matrix.Single,
		Evaluator: eval, Verify: true, Verifier: verifier,
		MaxCandidates: 1500, Finalists: 10})
	if err != nil {
		t.Fatal(err)
	}
	sel, err := tn.Search()
	if err != nil {
		t.Fatal(err)
	}
	if sel.Best.Params.Kwi == 2 {
		t.Error("a wrong-result kernel must never be selected")
	}
	for _, f := range sel.Finalists {
		if f.Params.Kwi == 2 {
			t.Errorf("wrong-result kernel survived the gate: %s", f.Params.Name())
		}
	}
	if len(sel.Finalists) != 10 {
		t.Errorf("gate must refill finalists from the ranking, got %d", len(sel.Finalists))
	}
	if sel.Stats.RejectedBy[RejectWrongResult] == 0 {
		t.Error("disqualified kernels must be tallied under RejectWrongResult")
	}
	if sel.Stats.Verified != len(sel.Finalists) {
		t.Errorf("Verified = %d, want %d", sel.Stats.Verified, len(sel.Finalists))
	}
}

// A verifier that rejects everything must surface ErrNoViableKernel,
// not select an unverified kernel.
func TestCorrectnessGateAllWrongFails(t *testing.T) {
	tn, err := New(Options{Device: device.Tahiti(), Precision: matrix.Single,
		Evaluator:     func(d *device.Spec, p *codegen.Params, n int) (float64, error) { return 1, nil },
		Verify:        true,
		Verifier:      func(d *device.Spec, p *codegen.Params) error { return ErrWrongResult },
		MaxCandidates: 300, Finalists: 5})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tn.Search(); !errors.Is(err, ErrNoViableKernel) {
		t.Fatalf("want ErrNoViableKernel, got %v", err)
	}
}

// A context cancelled while the correctness gate runs stops Search with
// ErrInterrupted, not with the gate's ErrNoViableKernel.
func TestSearchInterruptedDuringGate(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	tn, err := New(Options{Device: device.Tahiti(), Precision: matrix.Single, MaxCandidates: 300,
		Workers: 1, Verify: true, Context: ctx,
		Verifier: func(d *device.Spec, p *codegen.Params) error {
			cancel()
			return ctx.Err()
		}})
	if err != nil {
		t.Fatal(err)
	}
	if sel, err := tn.Search(); !errors.Is(err, ErrInterrupted) || sel != nil {
		t.Fatalf("gate interrupted: want nil selection and ErrInterrupted, got %v", err)
	}
}

// A verifier that panics on one specific finalist must disqualify only
// that finalist — tallied under RejectPanic — while the rest of the
// batch verifies in parallel and the strategy still returns a winner.
// This pins the panic-isolation contract of the gate's parallelFor.
func TestPanickingVerifierRejectsOnlyThatFinalist(t *testing.T) {
	var panics atomic.Int32
	tn, err := New(Options{Device: device.Tahiti(), Precision: matrix.Single,
		Verify:    true,
		Finalists: 4,
		Verifier: func(d *device.Spec, p *codegen.Params) error {
			if p.VectorWidth != 1 {
				panics.Add(1)
				panic("synthetic VerifySource crash")
			}
			return nil
		}})
	if err != nil {
		t.Fatal(err)
	}
	res, err := tn.RandomSearch(60, 7)
	if err != nil {
		t.Fatalf("RandomSearch must survive a panicking verifier: %v", err)
	}
	if panics.Load() == 0 {
		t.Skip("no vectorized candidate reached the gate; widen the budget")
	}
	if got := res.Stats.RejectedBy[RejectPanic]; got == 0 {
		t.Errorf("RejectedBy[RejectPanic] = %d, want > 0 (panics seen: %d)", got, panics.Load())
	}
	if len(res.Finalists) == 0 {
		t.Fatal("no finalists survived alongside the panicking one")
	}
	for _, f := range res.Finalists {
		if f.Params.VectorWidth != 1 {
			t.Errorf("finalist %s passed the gate despite its verifier panicking", f.Params.Name())
		}
	}
	if res.Stats.Verified != len(res.Finalists) {
		t.Errorf("Verified = %d, want %d", res.Stats.Verified, len(res.Finalists))
	}
}
