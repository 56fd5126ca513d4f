// Reporting: per-phase breakdowns aggregated from trace spans and an
// aligned table renderer.
package obs

import (
	"fmt"
	"sort"
	"strings"
)

// Phase is the aggregate of every span sharing one name: where a
// call's time went, the unit of the gemmbench -metrics table.
type Phase struct {
	Name    string  `json:"name"`
	Calls   int64   `json:"calls"`
	Seconds float64 `json:"seconds"`
	Bytes   int64   `json:"bytes,omitempty"`
	Flops   int64   `json:"flops,omitempty"`
}

// PhaseBreakdown aggregates span records by name, ordered by total
// time descending.
func PhaseBreakdown(spans []SpanRecord) []Phase {
	byName := map[string]*Phase{}
	for _, s := range spans {
		p := byName[s.Name]
		if p == nil {
			p = &Phase{Name: s.Name}
			byName[s.Name] = p
		}
		p.Calls++
		p.Seconds += s.Seconds
		p.Bytes += s.Bytes
		p.Flops += s.Flops
	}
	out := make([]Phase, 0, len(byName))
	for _, p := range byName {
		out = append(out, *p)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Seconds != out[j].Seconds {
			return out[i].Seconds > out[j].Seconds
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// RenderPhases formats phases as an aligned table with each phase's
// share of the total time.
func RenderPhases(phases []Phase) string {
	var total float64
	for _, p := range phases {
		total += p.Seconds
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-24s %8s %12s %7s %14s\n", "phase", "calls", "seconds", "share", "bytes")
	for _, p := range phases {
		share := 0.0
		if total > 0 {
			share = 100 * p.Seconds / total
		}
		fmt.Fprintf(&b, "%-24s %8d %12.6f %6.1f%% %14d\n", p.Name, p.Calls, p.Seconds, share, p.Bytes)
	}
	fmt.Fprintf(&b, "%-24s %8s %12.6f %6.1f%%\n", "total", "", total, 100.0)
	return b.String()
}
