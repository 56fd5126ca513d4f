package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"oclgemm/internal/codegen"
	"oclgemm/internal/matrix"
)

func genKernel(t *testing.T) string {
	t.Helper()
	p := codegen.Params{
		Precision: matrix.Single, Algorithm: codegen.BA,
		Mwg: 16, Nwg: 16, Kwg: 8,
		MdimC: 4, NdimC: 4, MdimA: 4, NdimB: 4,
		Kwi: 2, VectorWidth: 1,
		SharedA: true, SharedB: true,
		LayoutA: matrix.LayoutCBL, LayoutB: matrix.LayoutCBL,
	}
	src, err := p.GenerateSource()
	if err != nil {
		t.Fatal(err)
	}
	return src
}

func TestRunChecksGeneratedKernel(t *testing.T) {
	path := filepath.Join(t.TempDir(), "gemm.cl")
	if err := os.WriteFile(path, []byte(genKernel(t)), 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errOut strings.Builder
	if err := run([]string{path}, strings.NewReader(""), &out, &errOut); err != nil {
		t.Fatalf("run: %v (stderr: %s)", err, errOut.String())
	}
	if !strings.Contains(out.String(), "OK") {
		t.Errorf("output missing OK: %q", out.String())
	}
}

func TestRunFailsOnBadSource(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.cl")
	if err := os.WriteFile(path, []byte("__kernel void broken( {"), 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errOut strings.Builder
	if err := run([]string{path}, strings.NewReader(""), &out, &errOut); err == nil {
		t.Fatal("run succeeded on unparseable source; want error (non-zero exit)")
	}
}

func TestRunFailsOnMissingFile(t *testing.T) {
	var out, errOut strings.Builder
	if err := run([]string{filepath.Join(t.TempDir(), "nope.cl")}, strings.NewReader(""), &out, &errOut); err == nil {
		t.Fatal("run succeeded on missing file; want error")
	}
}

func TestRunReadsStdin(t *testing.T) {
	var out, errOut strings.Builder
	if err := run(nil, strings.NewReader(genKernel(t)), &out, &errOut); err != nil {
		t.Fatalf("run(stdin): %v", err)
	}
	if !strings.Contains(out.String(), "<stdin>: OK") {
		t.Errorf("output missing stdin OK: %q", out.String())
	}
}

// The AST interpreter is gone, and with it -interp: the flag is
// rejected as unknown.
func TestRunInterpFlag(t *testing.T) {
	var out, errOut strings.Builder
	if err := run([]string{"-interp"}, strings.NewReader(genKernel(t)), &out, &errOut); err == nil {
		t.Fatalf("run(-interp) succeeded; want an unknown-flag error (stdout: %s)", out.String())
	}
	if !strings.Contains(errOut.String(), "flag provided but not defined: -interp") {
		t.Errorf("stderr does not name the unknown flag: %q", errOut.String())
	}
}

// TestDumpBytecode: -dump-bytecode disassembles both the compiled and
// the optimized instruction stream for every kernel, and the optimizer
// visibly fired (fused multiply-accumulate present, header counts).
func TestDumpBytecode(t *testing.T) {
	var out, errOut strings.Builder
	if err := run([]string{"-dump-bytecode"}, strings.NewReader(genKernel(t)), &out, &errOut); err != nil {
		t.Fatalf("run(-dump-bytecode): %v\nstderr: %s", err, errOut.String())
	}
	got := out.String()
	for _, want := range []string{"; kernel", "(compiled)", "(optimized)", "instrs", "checkidx", "madacc"} {
		if !strings.Contains(got, want) {
			t.Errorf("dump output missing %q", want)
		}
	}
}

func TestRunNooptFlag(t *testing.T) {
	var out, errOut strings.Builder
	if err := run([]string{"-noopt"}, strings.NewReader(genKernel(t)), &out, &errOut); err != nil {
		t.Fatalf("run(-noopt): %v", err)
	}
	if !strings.Contains(out.String(), "OK") {
		t.Errorf("output missing OK: %q", out.String())
	}
}

// The self-check executes every grid kernel against the reference BLAS,
// then the whole small-tile grid against the native Go kernels. CI runs
// the raw-bytecode (-noopt) leg.
func TestSelfCheck(t *testing.T) {
	if testing.Short() {
		t.Skip("executes a kernel grid")
	}
	var out, errOut strings.Builder
	if err := run([]string{"-selfcheck"}, strings.NewReader(""), &out, &errOut); err != nil {
		t.Fatalf("run(-selfcheck): %v\nstderr: %s", err, errOut.String())
	}
	for _, want := range []string{"verified against reference BLAS", "bit-identical to native Go kernels"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("run(-selfcheck): output missing %q: %q", want, out.String())
		}
	}
}
