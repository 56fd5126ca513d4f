package obs

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeConcurrent(t *testing.T) {
	r := NewRegistry()
	const workers, each = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				r.Counter("c").Inc()
				r.Gauge("g").Add(1)
				r.Gauge("g").Add(-1)
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("c").Value(); got != workers*each {
		t.Errorf("counter = %d, want %d", got, workers*each)
	}
	if got := r.Gauge("g").Value(); got != 0 {
		t.Errorf("gauge = %d, want 0", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h", 1, 10, 100)
	for _, v := range []float64{0.5, 1, 5, 10, 50, 1000} {
		h.Observe(v)
	}
	s := r.Snapshot().Histograms["h"]
	if s.Count != 6 {
		t.Fatalf("count = %d, want 6", s.Count)
	}
	if want := 0.5 + 1 + 5 + 10 + 50 + 1000; math.Abs(s.Sum-want) > 1e-9 {
		t.Errorf("sum = %g, want %g", s.Sum, want)
	}
	// v <= bound lands in that bound's bucket; beyond the last bound
	// lands in the overflow bucket.
	wantCounts := []int64{2, 2, 1, 1}
	for i, w := range wantCounts {
		if s.Counts[i] != w {
			t.Errorf("bucket %d = %d, want %d (counts %v)", i, s.Counts[i], w, s.Counts)
		}
	}
}

func TestHistogramConcurrentSum(t *testing.T) {
	h := NewRegistry().Histogram("h", TimeBuckets...)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.Observe(0.001)
			}
		}()
	}
	wg.Wait()
	if h.Count() != 8000 {
		t.Errorf("count = %d, want 8000", h.Count())
	}
	if math.Abs(h.Sum()-8.0) > 1e-9 {
		t.Errorf("sum = %g, want 8.0", h.Sum())
	}
}

func TestNilRegistryAndInstrumentsAreNoOps(t *testing.T) {
	var r *Registry
	r.Counter("c").Inc()
	r.Gauge("g").Set(5)
	r.Histogram("h").Observe(1)
	if v := r.Counter("c").Value(); v != 0 {
		t.Errorf("nil counter value = %d", v)
	}
	s := r.Snapshot()
	if len(s.Counters) != 0 || len(s.Gauges) != 0 || len(s.Histograms) != 0 {
		t.Errorf("nil registry snapshot not empty: %+v", s)
	}

	var tr *Tracer
	sp := tr.Start("x")
	sp.SetBytes(1).SetFlops(2).SetAttr("k", "v")
	sp.End()
	if tr.Len() != 0 || tr.Snapshot() != nil {
		t.Error("nil tracer recorded spans")
	}
}

func TestTracerRingBufferWraps(t *testing.T) {
	tr := NewTracer(4)
	for i := 0; i < 7; i++ {
		sp := tr.Start(string(rune('a' + i)))
		sp.End()
	}
	if tr.Len() != 4 {
		t.Fatalf("len = %d, want 4", tr.Len())
	}
	if tr.Dropped() != 3 {
		t.Errorf("dropped = %d, want 3", tr.Dropped())
	}
	snap := tr.Snapshot()
	got := ""
	for _, s := range snap {
		got += s.Name
	}
	if got != "defg" {
		t.Errorf("snapshot order = %q, want oldest-first \"defg\"", got)
	}
}

func TestTracerJSONLinesValid(t *testing.T) {
	tr := NewTracer(16)
	sp := tr.Start("gemm.pack.A")
	sp.SetBytes(4096).SetFlops(128).SetAttr("device", "tahiti")
	time.Sleep(time.Millisecond)
	sp.End()
	tr.Event("sched.steal").SetAttr("device", "fermi").End()

	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(&buf)
	var recs []SpanRecord
	for sc.Scan() {
		var r SpanRecord
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			t.Fatalf("invalid JSON line %q: %v", sc.Text(), err)
		}
		recs = append(recs, r)
	}
	if len(recs) != 2 {
		t.Fatalf("got %d records, want 2", len(recs))
	}
	if recs[0].Name != "gemm.pack.A" || recs[0].Bytes != 4096 || recs[0].Flops != 128 {
		t.Errorf("record 0 = %+v", recs[0])
	}
	if recs[0].Seconds <= 0 {
		t.Errorf("span duration not positive: %v", recs[0].Seconds)
	}
	if recs[0].Attrs["device"] != "tahiti" {
		t.Errorf("attrs = %v", recs[0].Attrs)
	}
}

func TestContextSpan(t *testing.T) {
	tr := NewTracer(8)
	ctx := NewContext(context.Background(), tr)
	_, sp := StartSpan(ctx, "region")
	sp.End()
	if tr.Len() != 1 {
		t.Errorf("context span not recorded; len = %d", tr.Len())
	}
	// A context without a tracer yields a working no-op span.
	_, sp = StartSpan(context.Background(), "region")
	sp.SetBytes(1)
	sp.End()
}

func TestPhaseBreakdownAndRender(t *testing.T) {
	spans := []SpanRecord{
		{Name: "gemm.kernel", Seconds: 0.5},
		{Name: "gemm.pack.A", Seconds: 0.2, Bytes: 100},
		{Name: "gemm.pack.A", Seconds: 0.1, Bytes: 50},
		{Name: "gemm.copy.out", Seconds: 0.05, Bytes: 25},
	}
	phases := PhaseBreakdown(spans)
	if len(phases) != 3 {
		t.Fatalf("got %d phases, want 3", len(phases))
	}
	if phases[0].Name != "gemm.kernel" {
		t.Errorf("phases not time-ordered: %+v", phases)
	}
	if phases[1].Name != "gemm.pack.A" || phases[1].Calls != 2 || phases[1].Bytes != 150 {
		t.Errorf("pack.A aggregate = %+v", phases[1])
	}
	out := RenderPhases(phases)
	for _, want := range []string{"gemm.kernel", "gemm.pack.A", "total", "share"} {
		if !strings.Contains(out, want) {
			t.Errorf("table missing %q:\n%s", want, out)
		}
	}
}

func TestSnapshotJSONRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter(Label("sched.tiles", "device", "tahiti")).Add(7)
	r.Histogram("gemm.phase.kernel.seconds").Observe(0.01)
	var buf bytes.Buffer
	if err := r.Snapshot().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var s Snapshot
	if err := json.Unmarshal(buf.Bytes(), &s); err != nil {
		t.Fatalf("snapshot JSON invalid: %v", err)
	}
	if s.Counters["sched.tiles{device=tahiti}"] != 7 {
		t.Errorf("counters = %v", s.Counters)
	}
	if s.Histograms["gemm.phase.kernel.seconds"].Count != 1 {
		t.Errorf("histograms = %v", s.Histograms)
	}
	if out := r.Snapshot().Render(); !strings.Contains(out, "sched.tiles{device=tahiti}") {
		t.Errorf("render missing counter:\n%s", out)
	}
}
