package oclgemm

import (
	"oclgemm/internal/obs"
)

// Metrics is a process-local metrics registry: named counters, gauges
// and histograms with an atomic, allocation-free hot path. One registry
// can be shared by any number of GEMM routines, pools and tuning runs —
// instruments with the same name aggregate. The zero of everything is
// cheap: components given no registry skip all recording.
type Metrics = obs.Registry

// MetricsSnapshot is a point-in-time copy of a registry's instruments,
// renderable as an aligned table or JSON.
type MetricsSnapshot = obs.Snapshot

// Trace is a fixed-capacity ring buffer of completed spans. When full,
// the oldest spans are overwritten (see Trace.Dropped) so tracing never
// blocks or grows without bound.
type Trace = obs.Tracer

// TraceSpan is one completed span: name, start time, duration and the
// bytes/flops/attribute annotations the recording layer attached.
type TraceSpan = obs.SpanRecord

// PhaseStat aggregates the spans of one phase name: call count, total
// seconds, bytes and flops.
type PhaseStat = obs.Phase

// NewMetrics returns an empty metrics registry.
func NewMetrics() *Metrics { return obs.NewRegistry() }

// NewTrace returns a span ring buffer holding up to capacity spans
// (<= 0 selects the default, 4096).
func NewTrace(capacity int) *Trace { return obs.NewTracer(capacity) }

// PhaseBreakdown aggregates spans by name, sorted by total time
// descending — the per-phase (pack/kernel/copy) profile of a trace.
func PhaseBreakdown(spans []TraceSpan) []PhaseStat { return obs.PhaseBreakdown(spans) }

// RenderPhases formats a phase breakdown as an aligned table with each
// phase's share of the total.
func RenderPhases(phases []PhaseStat) string { return obs.RenderPhases(phases) }

// Observe attaches a metrics registry and/or span trace to the routine
// (either may be nil). Plans the engine builds afterwards record
// per-phase pack/kernel/copy timings, plan-cache and pack-reuse
// counters, and the underlying runtime's launch/buffer accounting.
// Call it before the first Run: plans already cached keep the
// instruments they were built with (Close first to rebuild). Safe to
// call concurrently with Runs.
func (g *GEMM) Observe(m *Metrics, t *Trace) {
	g.eng.Impl().SetObservability(m, t)
}
