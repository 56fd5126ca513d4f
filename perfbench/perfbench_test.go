package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"
)

// spec is the part of ../BENCHMARK.json the smoke test checks against.
type spec struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadSpec(t *testing.T) *spec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return &s
}

// runTiny runs one workload for a single deck of ops with one set-up and
// returns the exit code, the report and the parsed last line.
func runTiny(t *testing.T, args ...string) (int, string, *result) {
	t.Helper()
	var out, errOut bytes.Buffer
	code := run(append([]string{"--seconds", "0", "--setups", "1"}, args...), &out, &errOut)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%v: last line is not the JSON result: %v\nstdout:\n%s\nstderr:\n%s", args, err, out.String(), errOut.String())
	}
	return code, out.String(), &res
}

func TestWorkloadsMatchSpec(t *testing.T) {
	s := loadSpec(t)
	if len(s.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(s.Workloads), len(workloads))
	}
	for i, w := range s.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the program %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
}

// TestEveryMetricPrinted runs each workload tiny, untraced and traced,
// and checks that every metric BENCHMARK.json names is printed, in the
// report and in the JSON result, with its unit.
func TestEveryMetricPrinted(t *testing.T) {
	s := loadSpec(t)
	for _, w := range s.Workloads {
		for trace, want := range [][]struct{ Name, Unit string }{s.EndToEnd, s.PerLayer} {
			t.Run(fmt.Sprintf("%s/trace=%d", w.Name, trace), func(t *testing.T) {
				code, report, res := runTiny(t, "--workload", w.Name, "--trace", fmt.Sprint(trace))
				if code != 0 || !res.Correct || res.Attempted < 1 || res.Failed != 0 {
					t.Fatalf("exit %d, result %+v\n%s", code, res, report)
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("result holds %d metrics, BENCHMARK.json names %d", len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					if !ok || got.Unit != m.Unit {
						t.Errorf("metric %s: result has %+v (present %v), want unit %q", m.Name, got, ok, m.Unit)
					}
					if !strings.Contains(report, fmt.Sprintf(" %s ", m.Name)) || !strings.Contains(report, " "+m.Unit+" ") {
						t.Errorf("report does not print %s with unit %s", m.Name, m.Unit)
					}
					if trace == 0 && got.Value <= 0 {
						t.Errorf("end-to-end metric %s = %v, want > 0", m.Name, got.Value)
					}
				}
			})
		}
	}
}

// TestCorruptedResultFailsRun corrupts the first result each workload's
// checker sees: the run must report it and exit non-zero.
func TestCorruptedResultFailsRun(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			code, report, res := runTiny(t, "--workload", w.name, "--corrupt")
			if code == 0 || res.Correct || res.Failed < 1 {
				t.Fatalf("corrupted result passed: exit %d, result %+v\n%s", code, res, report)
			}
		})
	}
}

func TestBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "gemm-mix", "--trace", "2"},
	} {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code != 2 || out.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q", args, code, out.String())
		}
	}
}
