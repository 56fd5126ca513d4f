package oclgemm

import (
	"bufio"
	"bytes"
	"fmt"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"strings"
	"testing"
)

// fusedAllowed lists the functions that may keep a fused multiply-add
// on arm64, each with the reason fusing cannot change a result the
// repository checks. Generic instantiations are named without their
// type arguments.
var fusedAllowed = map[string]string{
	"oclgemm/internal/matrix.(*Matrix).FillRandom":   "input generator: 2·u−1 scales by a power of two, so the product is exact",
	"oclgemm/internal/serve.randSlice":               "input generator: 2·u−1 scales by a power of two, so the product is exact",
	"oclgemm/internal/serve.(*admission).admit":      "token-bucket refill: decides when a request is admitted, never what it computes",
	"oclgemm/internal/sched.(*Pool).Estimate":        "sums integer-valued flop counts, which are exact below 2^53",
	"oclgemm/internal/faultinject.(*Injector).noisy": "synthetic measurement noise for chaos tests, compared only within one run",
}

// TestNoFusedMultiplyAddOnArm64 cross-compiles the module for arm64
// and fails on any fused multiply-add (FMADD, FMSUB, FNMADD, FNMSUB)
// in an oclgemm function outside fusedAllowed. Go may fuse x*y + z
// unless a conversion rounds the product (T(x*y)); amd64 never fuses,
// so only this check sees a lost conversion. Bit-identity between the
// native kernels, the clc VM (which never fuses) and the BLAS oracles
// rests on it. Command main packages print timings only and are not
// checked.
func TestNoFusedMultiplyAddOnArm64(t *testing.T) {
	goTool := filepath.Join(runtime.GOROOT(), "bin", "go")
	cmd := exec.Command(goTool, "build", "-gcflags=oclgemm/...=-S", "./...")
	cmd.Env = append(cmd.Environ(), "GOARCH=arm64", "GOOS=linux", "CGO_ENABLED=0")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("arm64 cross-compile: %v\n%.2000s", err, out)
	}
	typeArgs := regexp.MustCompile(`\[[^\]]*\]`)
	fused := regexp.MustCompile(`\t(FMADD|FMSUB|FNMADD|FNMSUB)[SD]\t`)
	bad := map[string]int{}
	fn := ""
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line != "" && line[0] != '\t' && line[0] != ' ' && strings.Contains(line, " STEXT") {
			fn = typeArgs.ReplaceAllString(strings.Fields(line)[0], "")
			continue
		}
		if !strings.HasPrefix(fn, "oclgemm/") && !strings.HasPrefix(fn, "oclgemm.") {
			continue
		}
		if _, ok := fusedAllowed[fn]; !ok && fused.MatchString(line) {
			bad[fn]++
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	names := make([]string, 0, len(bad))
	for name, n := range bad {
		names = append(names, fmt.Sprintf("%s (%d)", name, n))
	}
	sort.Strings(names)
	if len(names) > 0 {
		t.Fatalf("fused multiply-adds on arm64 (round each product explicitly, T(x*y)):\n%s", strings.Join(names, "\n"))
	}
}
