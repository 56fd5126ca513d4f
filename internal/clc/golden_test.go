package clc_test

import (
	"bufio"
	"crypto/sha256"
	"fmt"
	"os"
	"strings"
	"sync"
	"testing"

	"oclgemm/internal/clc"
	"oclgemm/internal/codegen"
	"oclgemm/internal/core"
	"oclgemm/internal/device"
	"oclgemm/internal/matrix"
)

const goldenPath = "testdata/optimizer_golden.txt"

// goldenStride samples every goldenStride-th point of each DefaultSpace
// enumeration: about 125 kernels over the eight device/precision pairs.
const goldenStride = 1_500_007

// goldenKernel is one sampled kernel's optimizer outcome.
type goldenKernel struct {
	id     string // device/precision/enumeration index
	sum    string // sha256 of Disassemble(true)
	sweeps int    // the liveness sweeps optimization took
}

func optimizeGolden(id, src string) (goldenKernel, error) {
	prog, err := clc.Compile(src)
	if err != nil {
		return goldenKernel{}, err
	}
	kern, err := prog.Kernel(codegen.KernelName)
	if err != nil {
		return goldenKernel{}, err
	}
	dis, err := kern.Disassemble(true)
	if err != nil {
		return goldenKernel{}, err
	}
	return goldenKernel{id, fmt.Sprintf("%x", sha256.Sum256([]byte(dis))), clc.OptimizerSweeps(kern)}, nil
}

// goldenCorpus samples the generated-kernel space for kepler,
// sandybridge, tahiti and fermi in both precisions and optimizes every
// sampled kernel, one goroutine per device/precision pair. Each pair
// starts at its own phase so devices with identical spaces contribute
// different kernels.
func goldenCorpus(t *testing.T) []goldenKernel {
	devs := []*device.Spec{device.Kepler(), device.SandyBridge(), device.Tahiti(), device.Fermi()}
	precs := []matrix.Precision{matrix.Single, matrix.Double}
	parts := make([][]goldenKernel, len(devs)*len(precs))
	errs := make([]error, len(parts))
	var wg sync.WaitGroup
	for di, d := range devs {
		for pi, prec := range precs {
			c := di*len(precs) + pi
			wg.Add(1)
			go func() {
				defer wg.Done()
				phase := c * goldenStride / len(parts)
				i := 0
				core.DefaultSpace(d).Enumerate(d, prec, func(p codegen.Params) bool {
					if i%goldenStride == phase {
						// Copy first: taking p's address for the method
						// call would heap-allocate every enumerated point.
						q := p
						id := fmt.Sprintf("%s/%s/%d", d.ID, prec, i)
						src, err := q.GenerateSource()
						var gk goldenKernel
						if err == nil {
							gk, err = optimizeGolden(id, src)
						}
						if err != nil {
							errs[c] = fmt.Errorf("%s: %v", id, err)
							return false
						}
						parts[c] = append(parts[c], gk)
					}
					i++
					return true
				})
			}()
		}
	}
	wg.Wait()
	var out []goldenKernel
	for c, part := range parts {
		if errs[c] != nil {
			t.Fatal(errs[c])
		}
		out = append(out, part...)
	}
	return out
}

func readGolden(t *testing.T) map[string]string {
	f, err := os.Open(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		id, sum, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("%s: malformed line %q", goldenPath, line)
		}
		want[id] = sum
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return want
}

// TestOptimizerGoldenBytecode pins the optimizer's output: the sha256 of
// Disassemble(true) for a deterministic sample of generated kernels must
// match the committed golden, so a refactor of the optimizer that is
// meant to be output-preserving provably is. optDebugPanic is on, so a
// pass that panics (and in production would fall back to the raw
// bytecode) shows up as a failure rather than as a changed hash. Each
// pass runs once, and liveness, the one fixpoint left, must settle
// within maxSweeps backward sweeps over a kernel's blocks: about one
// per loop nesting level.
//
// On a mismatch the log carries the complete regenerated golden; commit
// it only when a change is meant to alter the optimized bytecode.
func TestOptimizerGoldenBytecode(t *testing.T) {
	if testing.Short() {
		t.Skip("generated-kernel corpus")
	}
	defer clc.SetOptDebugPanic(true)()
	want := readGolden(t)
	corpus := goldenCorpus(t)
	if len(corpus) != len(want) {
		t.Errorf("corpus has %d kernels, golden %d", len(corpus), len(want))
	}
	var regen strings.Builder
	const maxSweeps = 5
	most := 0
	for _, gk := range corpus {
		fmt.Fprintf(&regen, "%s %s\n", gk.id, gk.sum)
		if w, ok := want[gk.id]; !ok {
			t.Errorf("%s: not in golden", gk.id)
		} else if w != gk.sum {
			t.Errorf("%s: optimized bytecode sha256 %s, golden %s", gk.id, gk.sum, w)
		}
		if gk.sweeps > maxSweeps {
			t.Errorf("%s: liveness took %d sweeps, want <= %d", gk.id, gk.sweeps, maxSweeps)
		}
		most = max(most, gk.sweeps)
	}
	t.Logf("%d kernels, at most %d liveness sweeps", len(corpus), most)
	if t.Failed() {
		t.Logf("regenerated %s:\n%s", goldenPath, regen.String())
	}
}
