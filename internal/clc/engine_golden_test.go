package clc

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

const engineGoldenPath = "testdata/engine_golden.txt"

const engineGoldenHeader = `# Engine verdicts pinned by TestEngineGolden, one "id verdict" line each:
# "ok" with the output bits in hex, "error" with the verbatim error
# string, "sha256" of a generated kernel's C bits, or a minimal fuel.
`

// verdict64 renders a run's outcome: the buffer bits, or the error.
func verdict64(buf []float64, err error) string {
	if err != nil {
		return "error " + strconv.Quote(err.Error())
	}
	words := make([]string, len(buf))
	for i, x := range buf {
		words[i] = fmt.Sprintf("%016x", math.Float64bits(x))
	}
	return "ok " + strings.Join(words, ",")
}

func verdict32(buf []float32) string {
	words := make([]string, len(buf))
	for i, x := range buf {
		words[i] = fmt.Sprintf("%08x", math.Float32bits(x))
	}
	return "ok " + strings.Join(words, ",")
}

// fuzzCorpus returns the committed FuzzRunTinyKernel inputs by name.
func fuzzCorpus(t *testing.T) (names, bodies []string) {
	paths, err := filepath.Glob("testdata/fuzz/FuzzRunTinyKernel/*")
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(string(data)), "\n")
		arg, ok := strings.CutPrefix(lines[len(lines)-1], "string(")
		body, err := strconv.Unquote(strings.TrimSuffix(arg, ")"))
		if len(lines) != 2 || !ok || err != nil {
			t.Fatalf("%s: not a one-string fuzz corpus entry", path)
		}
		names = append(names, filepath.Base(path))
		bodies = append(bodies, body)
	}
	return names, bodies
}

// TestEngineGolden pins what clc computes, independently of how it is
// executed: the output bits or verbatim error of every feature,
// local-memory, error-parity, fuel and mad/fma case and of every fuzz
// seed and corpus entry, the sha256 of C for every generated-sweep
// kernel, and the minimal fuel of the fuel-parity kernel. Each run
// verdict comes from a run on which the optimized and the raw bytecode
// match (TestOptimizerFuelParity checks that they match on the fuel).
//
// On a mismatch the log carries the complete regenerated golden; commit
// it only when a change is meant to alter what kernels compute.
func TestEngineGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("generated-kernel sweep and fuel search")
	}
	withOptDebugPanic(t)
	var got strings.Builder
	got.WriteString(engineGoldenHeader)
	add := func(id, verdict string) { fmt.Fprintf(&got, "%s %s\n", id, verdict) }

	for _, tc := range featureCases {
		add("feature/"+tc.name, verdict64(runBoth(t, tinyKernel(tc.body), 8, oneByFour())))
	}
	add("local-barrier", verdict64(runBoth(t, localBarrierSrc, 8, localBarrierND)))
	for _, tc := range append(barrierCases, divergentCases...) {
		buf, hits, err := runBothHits(t, tc.src, 8, barrierND)
		add("barrier/"+tc.name, verdict64(buf, err))
		if err == nil {
			add("barrier/"+tc.name+"/hits", strconv.FormatInt(hits, 10))
		}
	}
	for _, tc := range laneCases {
		buf, hits, err := runBothHits(t, tc.src, 8, laneND)
		add("lane/"+tc.name, verdict64(buf, err))
		if err == nil {
			add("lane/"+tc.name+"/hits", strconv.FormatInt(hits, 10))
		}
	}
	for _, tc := range errorParityCases {
		add("error/"+tc.name, verdict64(runBoth(t, tinyKernel(tc.body), 8, oneByFour())))
	}
	add("fuel-budget", verdict64(runBoth(t, tinyKernel(fuelBudgetBody), 8, oneByFour())))
	for _, tc := range madDoubleCases {
		add("mad/"+tc.name, verdict64(twoWay(t, madSource("double", tc.body), fill64(tc.n, madX), fill64(tc.n, madY), fill64(tc.n, madZ)), nil))
	}
	for _, tc := range madFloatCases {
		add("mad/"+tc.name, verdict32(twoWay(t, madSource("float", tc.body), fill32(tc.n, madX32), fill32(tc.n, madY32), fill32(tc.n, madZ32))))
	}
	for i, body := range fuzzBodies {
		add(fmt.Sprintf("fuzz/seed#%d", i), verdict64(runTinyKernel(t, body)))
	}
	names, bodies := fuzzCorpus(t)
	for i, body := range bodies {
		add("fuzz/"+names[i], verdict64(runTinyKernel(t, body)))
	}
	for i, p := range generatedSweep() {
		c := runGeneratedBoth(t, p, int64(i+1))
		if c == nil {
			continue
		}
		h := sha256.New()
		for _, x := range c {
			binary.Write(h, binary.LittleEndian, math.Float64bits(x))
		}
		add(fmt.Sprintf("generated/%d/%s", i, p.Name()), fmt.Sprintf("sha256 %x", h.Sum(nil)))
	}
	run := generatedRunner(t, fuelParityParams, 97)
	add("fuel-parity/min", strconv.FormatInt(minFuel(t, run, true), 10))

	want, err := os.ReadFile(engineGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	if string(want) == got.String() {
		return
	}
	verdicts := func(text string) map[string]string {
		m := map[string]string{}
		for _, line := range strings.Split(text, "\n") {
			if id, v, ok := strings.Cut(line, " "); ok && !strings.HasPrefix(line, "#") {
				m[id] = v
			}
		}
		return m
	}
	wantV, gotV := verdicts(string(want)), verdicts(got.String())
	for id, g := range gotV {
		if w, ok := wantV[id]; !ok {
			t.Errorf("%s: not in golden", id)
		} else if w != g {
			t.Errorf("%s:\n got: %s\nwant: %s", id, g, w)
		}
	}
	for id := range wantV {
		if _, ok := gotV[id]; !ok {
			t.Errorf("%s: in golden but not computed", id)
		}
	}
	if !t.Failed() {
		t.Errorf("%s differs from the regenerated golden outside its verdicts", engineGoldenPath)
	}
	t.Logf("regenerated %s:\n%s", engineGoldenPath, got.String())
}
