package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"time"
)

// metric is one reported number. note says how it was obtained when it
// is not a plain host measurement ("computed", "derived", "modeled", or
// why a layer is absent from this workload).
type metric struct {
	name  string
	value float64
	unit  string
	note  string
}

// recorder accumulates the timed ops of one phase. Only ops whose
// result verified contribute flops; every op contributes latency.
type recorder struct {
	lat       []float64 // seconds per op
	timed     float64   // seconds of timed wall time
	flops     float64   // useful 2mnk of the ops that verified
	attempted int
	failed    int
	firstFail string
	// segs are consecutive slices of the phase (decks of a sequential
	// workload, runs of consecutive replies of a concurrent one);
	// throughput is reported as the median over them, which a burst of
	// host noise moves less than the whole-phase mean.
	segs []segment
	seg  segment // the open segment of a sequential phase
}

// segment is the verified work of one slice of a phase.
type segment struct{ secs, ok, flops float64 }

// cut closes the open segment (a sequential phase's deck).
func (r *recorder) cut() {
	r.segs = append(r.segs, r.seg)
	r.seg = segment{}
}

// rates returns the median over segments of verified ops and useful
// flops per second, or the whole-phase rates when no segment closed.
func (r *recorder) rates() (opsPerS, flopsPerS float64) {
	if len(r.segs) == 0 {
		return float64(r.attempted-r.failed) / r.timed, r.flops / r.timed
	}
	ops := make([]float64, len(r.segs))
	fl := make([]float64, len(r.segs))
	for i, s := range r.segs {
		ops[i], fl[i] = s.ok/s.secs, s.flops/s.secs
	}
	return quantile(ops, 0.5), quantile(fl, 0.5)
}

// op records one timed op. A non-nil err marks it failed (errored, shed
// or wrong) and its flops are not counted.
func (r *recorder) op(lat, flops float64, err error) {
	r.attempted++
	r.lat = append(r.lat, lat)
	r.seg.secs += lat
	if err != nil {
		r.failed++
		if r.firstFail == "" {
			r.firstFail = err.Error()
		}
		return
	}
	r.flops += flops
	r.seg.ok++
	r.seg.flops += flops
}

// merge folds another recorder's ops into r (timed wall is set by the
// caller for concurrent phases).
func (r *recorder) merge(o *recorder) {
	r.lat = append(r.lat, o.lat...)
	r.flops += o.flops
	r.attempted += o.attempted
	r.failed += o.failed
	if r.firstFail == "" {
		r.firstFail = o.firstFail
	}
}

// quantile returns the nearest-rank q-quantile of xs (0 for no samples).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

// since returns the seconds elapsed from t.
func since(t time.Time) float64 { return time.Since(t).Seconds() }

// memPhase brackets a timed phase: heap bytes allocated inside it and
// the live heap after a collection at its end.
type memPhase struct{ startAlloc uint64 }

func startMem() memPhase {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memPhase{startAlloc: ms.TotalAlloc}
}

// end returns the bytes allocated since startMem and the live heap
// after runtime.GC.
func (m memPhase) end() (alloc, retained uint64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	alloc = ms.TotalAlloc - m.startAlloc
	// Two collections: the first moves sync.Pool contents to the victim
	// cache, the second frees them.
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return alloc, ms.HeapAlloc
}

// phase is the outcome of one timed phase of a workload.
type phase struct {
	rec             recorder
	alloc, retained uint64
	runs            []int // ops run per deck kind
}

// endToEnd assembles the end-to-end metrics of an untraced run, in the
// order BENCHMARK.json lists them. setups holds the seconds of every
// set-up repetition; modelBest is the modeled GFlop/s of the kernels
// the workload tuned or serves with.
func endToEnd(setups []float64, ph *phase, modelBest float64) []metric {
	r := &ph.rec
	ops := float64(max(r.attempted, 1))
	opsPerS, flopsPerS := r.rates()
	p99, p99Note := tailLatency(r.lat)
	segNote := fmt.Sprintf("median over %d segments", len(r.segs))
	return []metric{
		{"setup_s", quantile(setups, 0.5), "s", fmt.Sprintf("median of %d set-ups", len(setups))},
		{"ops_per_s", opsPerS, "1/s", segNote},
		{"op_p50_ms", 1e3 * quantile(r.lat, 0.5), "ms", fmt.Sprintf("%d samples", len(r.lat))},
		{"op_p99_ms", 1e3 * p99, "ms", p99Note},
		{"gflops", flopsPerS / 1e9, "GFlop/s", segNote + "; useful unpadded flops"},
		{"alloc_kb_per_op", float64(ph.alloc) / 1024 / ops, "KiB", ""},
		{"retained_mb", float64(ph.retained) / (1 << 20), "MiB", "live heap after GC"},
		{"tune_best_gflops", modelBest, "model_GFlop/s", "modeled by perfmodel, not host time"},
	}
}

// p99Window is the op count whose p99 has ten samples beyond it.
const p99Window = 1000

// tailLatency returns the p99 of lat (in completion order) and how it
// was taken. A run of at least two windows reports the median of the
// windows' p99s, so a host stall inside one window moves it little;
// shorter runs report the p99 over all ops.
func tailLatency(lat []float64) (float64, string) {
	n := len(lat) / p99Window
	if n < 2 {
		return quantile(lat, 0.99), fmt.Sprintf("p99 over %d samples (%d beyond)", len(lat), len(lat)/100)
	}
	ps := make([]float64, n)
	for i := range ps {
		ps[i] = quantile(lat[i*p99Window:(i+1)*p99Window], 0.99)
	}
	return quantile(ps, 0.5), fmt.Sprintf("median of %d p99s over %d consecutive ops (%d samples)", n, p99Window, len(lat))
}

// geomean returns the geometric mean of positive xs.
func geomean(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}

// ratio returns a/b, or 0 when b is 0 (an empty denominator means the
// layer saw no work, which the report flags).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
