// Per-member health: the healthy → suspect → quarantined → probation
// state machine that replaced the permanent dead flag, and the
// correctness-gated recovery probe. A quarantined member re-enters the
// pool only after a small probe GEMM on its own engine verifies
// bit-exact against the pure-Go BLAS reference (internal/blas
// accumulates float64 in k-order, exactly like the simulated kernel in
// double precision), so re-admission decisions are gated on proven
// correctness, not on time served.
package sched

import (
	"context"
	"errors"
	"fmt"
	"math/rand"

	"oclgemm/internal/blas"
	"oclgemm/internal/core"
	"oclgemm/internal/gemmimpl"
	"oclgemm/internal/matrix"
)

// HealthState is a member's position in the serve-path health state
// machine.
type HealthState int

// Health states. Healthy and Suspect members take tiles normally;
// Probation members take tiles but one failure re-quarantines them;
// Quarantined members take none.
const (
	// Healthy: no recent failures.
	Healthy HealthState = iota
	// Suspect: at least one recent failure, below the quarantine
	// threshold. The next success clears it.
	Suspect
	// Probation: re-admitted by a successful probe; graduates to
	// Healthy after probationTiles consecutive successes, drops back to
	// Quarantined on a single failure.
	Probation
	// Quarantined: drained out of the pool (threshold, ErrDeviceDead,
	// failed probe, or Kill).
	Quarantined
)

// String names the state.
func (s HealthState) String() string {
	switch s {
	case Healthy:
		return "healthy"
	case Suspect:
		return "suspect"
	case Probation:
		return "probation"
	case Quarantined:
		return "quarantined"
	default:
		return fmt.Sprintf("HealthState(%d)", int(s))
	}
}

// MemberHealth is one member's health snapshot.
type MemberHealth struct {
	// Device is the member's device ID.
	Device string
	// State is the member's current health state.
	State HealthState
	// Killed reports an explicit Kill: the member stays quarantined
	// until Revive, exempt from automatic probing.
	Killed bool
	// ConsecFails is the current consecutive-failure count.
	ConsecFails int
	// Probes, ProbeFailures and Recoveries count recovery probes run,
	// probes failed, and successful re-admissions over the pool's life.
	Probes, ProbeFailures, Recoveries int
}

// Health returns every member's health snapshot, in pool order.
func (p *Pool) Health() []MemberHealth {
	out := make([]MemberHealth, len(p.members))
	for i, mb := range p.members {
		mb.mu.Lock()
		out[i] = MemberHealth{
			Device:        mb.dev.ID,
			State:         mb.state,
			Killed:        mb.killed,
			ConsecFails:   mb.consecFails,
			Probes:        mb.probes,
			ProbeFailures: mb.probeFails,
			Recoveries:    mb.recoveries,
		}
		mb.mu.Unlock()
	}
	return out
}

// quarantineLocked moves the member to Quarantined under mb.mu,
// counting the event only on the first transition and scheduling the
// next auto-probe.
func (p *Pool) quarantineLocked(mb *member) {
	if mb.state == Quarantined {
		return
	}
	mb.state = Quarantined
	mb.stats.Dead = true
	mb.probeWait = probeCooldown
	mb.nextProbe = p.runSeq.Load() + mb.probeWait
	mb.o.deaths.Inc()
}

// noteFailure advances the member's health after a failed tile attempt
// and reports whether it is (now) quarantined.
func (p *Pool) noteFailure(mb *member, err error) bool {
	mb.mu.Lock()
	mb.stats.Retries++
	mb.consecFails++
	mb.consecOK = 0
	switch {
	case errors.Is(err, ErrDeviceDead):
		p.quarantineLocked(mb)
	case mb.state == Probation:
		// One strike on probation sends the member straight back.
		p.quarantineLocked(mb)
	case mb.consecFails >= failThreshold:
		p.quarantineLocked(mb)
	case mb.state == Healthy:
		mb.state = Suspect
	}
	q := mb.state == Quarantined
	mb.mu.Unlock()
	mb.o.failures.Inc()
	return q
}

// noteSuccessLocked advances health after a completed tile: suspicion
// clears immediately, probation graduates after enough consecutive
// successes. Called with mb.mu held (merged into tileDone's stats
// critical section).
func (p *Pool) noteSuccessLocked(mb *member) {
	mb.consecFails = 0
	switch mb.state {
	case Suspect:
		mb.state = Healthy
	case Probation:
		mb.consecOK++
		if mb.consecOK >= probationTiles {
			mb.state = Healthy
		}
	}
}

// admitQuarantined advances the pool's run clock and probes every
// quarantined member whose cooldown has elapsed (killed members wait
// for an explicit Revive). Called at the top of each pool call.
func (p *Pool) admitQuarantined(ctx context.Context) {
	seq := p.runSeq.Add(1)
	for _, mb := range p.members {
		mb.mu.Lock()
		due := mb.state == Quarantined && !mb.killed && !mb.probing && seq >= mb.nextProbe
		mb.mu.Unlock()
		if due {
			p.probeMember(ctx, mb)
		}
	}
}

// Revive lifts an explicit Kill: the member is probed immediately and
// re-admitted on probation when the probe verifies bit-exact. It
// reports whether any matching member is schedulable again.
func (p *Pool) Revive(deviceID string) bool {
	ok := false
	for _, mb := range p.members {
		if mb.dev.ID != deviceID {
			continue
		}
		mb.mu.Lock()
		mb.killed = false
		quarantined := mb.state == Quarantined
		mb.mu.Unlock()
		if !quarantined || p.probeMember(context.Background(), mb) {
			ok = true
		}
	}
	return ok
}

// probeMember runs the re-admission probe on a quarantined member: a
// small DGEMM through the member's own engine, verified element-wise
// bit-exact against internal/blas. Success moves the member to
// Probation; failure doubles its probe cooldown. Returns whether the
// member is schedulable afterwards.
func (p *Pool) probeMember(ctx context.Context, mb *member) bool {
	mb.mu.Lock()
	if mb.state != Quarantined || mb.probing {
		st, probing := mb.state, mb.probing
		mb.mu.Unlock()
		return st != Quarantined && !probing
	}
	mb.probing = true
	mb.probes++
	mb.mu.Unlock()
	mb.o.probes.Inc()

	sp := mb.tr.Start("sched.probe")
	sp.SetAttr("device", mb.dev.ID)
	err := runProbe(ctx, mb)
	if err == nil {
		sp.SetAttr("result", "readmitted")
	} else {
		sp.SetAttr("result", "failed").SetAttr("error", err.Error())
	}
	sp.End()

	mb.mu.Lock()
	defer mb.mu.Unlock()
	mb.probing = false
	if err != nil {
		mb.probeFails++
		if mb.probeWait < 8*probeCooldown {
			mb.probeWait *= 2
		}
		mb.nextProbe = p.runSeq.Load() + mb.probeWait
		mb.o.probeFails.Inc()
		return false
	}
	mb.state = Probation
	mb.stats.Dead = false
	mb.consecFails, mb.consecOK = 0, 0
	mb.probeWait = probeCooldown
	mb.recoveries++
	mb.o.recoveries.Inc()
	return true
}

// probeDims sizes the probe problem to cross the member's work-group
// blocking on every axis, so padding and all kernel phases are
// exercised without costing a real call's worth of time.
func probeDims(im *gemmimpl.Impl) (m, n, k int) {
	pp := im.Params
	return pp.Mwg + 3, pp.Nwg + 1, pp.Kwg + 2
}

// runProbe executes the probe DGEMM and compares it element-wise
// bit-exact against the pure-Go reference. Double precision is the
// discriminating case: blas.GEMM accumulates float64 in k-order exactly
// like the simulated kernel, so any mismatch is a real fault, not
// rounding.
func runProbe(ctx context.Context, mb *member) error {
	m, n, k := probeDims(mb.im64)
	rng := rand.New(rand.NewSource(1009))
	a := matrix.New[float64](m, k, matrix.ColMajor)
	b := matrix.New[float64](k, n, matrix.ColMajor)
	c := matrix.New[float64](m, n, matrix.ColMajor)
	a.FillRandom(rng)
	b.FillRandom(rng)
	c.FillRandom(rng)
	const alpha, beta = 1.25, -0.5
	want := c.Clone()
	blas.GEMM(blas.NoTrans, blas.NoTrans, alpha, a, b, beta, want)
	if err := gemmimpl.EngineRunCtx(ctx, mb.eng64, blas.NoTrans, blas.NoTrans, alpha, a, b, beta, c); err != nil {
		return fmt.Errorf("sched: probe GEMM on %s failed: %w", mb.dev.ID, err)
	}
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			if c.At(i, j) != want.At(i, j) {
				return fmt.Errorf("%w: probe C[%d,%d] = %v, reference %v (not bit-exact)",
					core.ErrWrongResult, i, j, c.At(i, j), want.At(i, j))
			}
		}
	}
	return nil
}

// healthiest returns the most trustworthy non-quarantined member for a
// whole-call fallback: best health state (healthy before probation
// before suspect), then fewest consecutive failures, then highest
// modeled throughput for the problem.
func (p *Pool) healthiest(prec matrix.Precision, m, n, k int) *member {
	rank := func(s HealthState) int {
		switch s {
		case Healthy:
			return 0
		case Probation:
			return 1
		default: // Suspect
			return 2
		}
	}
	var best *member
	var bestRank, bestFails int
	var bestGF float64
	for _, mb := range p.members {
		mb.mu.Lock()
		st, fails := mb.state, mb.consecFails
		mb.mu.Unlock()
		if st == Quarantined {
			continue
		}
		gf, err := mb.impl(prec).GFlops(m, n, k)
		if err != nil {
			gf = 0
		}
		r := rank(st)
		if best == nil || r < bestRank ||
			(r == bestRank && (fails < bestFails || (fails == bestFails && gf > bestGF))) {
			best, bestRank, bestFails, bestGF = mb, r, fails, gf
		}
	}
	return best
}
