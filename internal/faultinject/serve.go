// Serve-path fault injection: a deterministic launch-hook injector for
// the multi-device scheduler's resilience machinery. Where Injector
// attacks the tuning engine per candidate, ServeInjector attacks the
// execution path per kernel launch — transient flakes, timeouts, and
// scripted per-device death/recovery windows — so chaos tests can drive
// the pool's retry/backoff, quarantine/probe, and degradation ladder
// with reproducible schedules.
package faultinject

import (
	"fmt"
	"sync"

	"oclgemm/internal/core"
)

// Death is the serve-path fault class for launches refused inside a
// device's scripted death window (reported by ServeInjector.Counts; the
// tuner-side ClassOf never returns it).
const Death Class = -1

// ServeConfig scripts a ServeInjector. Rates are probabilities (0..1)
// that one kernel launch draws that fault; rates must sum to at most 1.
// Decisions are pure functions of (seed, device, launch index), so a
// chaos run is reproducible regardless of worker scheduling.
type ServeConfig struct {
	Seed int64

	// TransientRate injects recoverable launch failures wrapping
	// core.ErrTransient — the scheduler should retry these in place
	// with backoff.
	TransientRate float64
	// TimeoutRate injects launch failures wrapping core.ErrTimeout —
	// modeled hung kernels reclaimed by the runtime's own watchdog, so
	// they fail fast instead of blocking a worker.
	TimeoutRate float64

	// DeadAt scripts a mid-run death: from the device's Nth launch
	// (1-based) onward, every launch on it fails with an unclassified
	// hard error, driving the consecutive-failure quarantine. ReviveAt
	// (optional, per device) ends the window: from that launch count on,
	// the device works again — launches inside the window still count.
	DeadAt   map[string]int
	ReviveAt map[string]int
}

// ServeInjector injects deterministic faults into scheduler kernel
// launches via its Hook. Safe for concurrent use.
type ServeInjector struct {
	cfg ServeConfig

	mu       sync.Mutex
	launches map[string]int // per-device launch counter
	counts   map[Class]int  // faults actually injected
	perDev   map[string]int // faults per device
}

// NewServe builds a serve-path injector; rates are validated against
// the unit interval.
func NewServe(cfg ServeConfig) (*ServeInjector, error) {
	total := cfg.TransientRate + cfg.TimeoutRate
	if total > 1 || cfg.TransientRate < 0 || cfg.TimeoutRate < 0 {
		return nil, fmt.Errorf("faultinject: serve rates must be non-negative and sum to <= 1, got %g", total)
	}
	return &ServeInjector{
		cfg:      cfg,
		launches: make(map[string]int),
		counts:   make(map[Class]int),
		perDev:   make(map[string]int),
	}, nil
}

// unit reuses the tuner injector's seeded hash (FNV-1a + murmur-style
// finalizer) over the serve labels.
func (si *ServeInjector) unit(labels ...string) float64 {
	in := Injector{cfg: Config{Seed: si.cfg.Seed}}
	return in.unit(labels...)
}

// Hook is the scheduler LaunchHook: it advances the device's launch
// clock and returns the scripted fault, if any. Errors wrap the core
// taxonomy so the scheduler can classify them (core.ErrTransient →
// retry with backoff; anything else → requeue and count toward
// quarantine).
func (si *ServeInjector) Hook(deviceID, kernelName string) error {
	si.mu.Lock()
	si.launches[deviceID]++
	n := si.launches[deviceID]
	si.mu.Unlock()

	if at, ok := si.cfg.DeadAt[deviceID]; ok && n >= at {
		if rev, ok := si.cfg.ReviveAt[deviceID]; !ok || n < rev {
			si.record(Death, deviceID)
			return fmt.Errorf("faultinject: device %s in scripted death window (launch %d)", deviceID, n)
		}
	}

	u := si.unit("serve", deviceID, fmt.Sprint(n))
	switch {
	case u < si.cfg.TransientRate:
		si.record(Transient, deviceID)
		return fmt.Errorf("%w: injected serve flake on %s (launch %d)", core.ErrTransient, deviceID, n)
	case u < si.cfg.TransientRate+si.cfg.TimeoutRate:
		si.record(Hang, deviceID)
		return fmt.Errorf("%w: injected launch timeout on %s (launch %d)", core.ErrTimeout, deviceID, n)
	}
	return nil
}

func (si *ServeInjector) record(c Class, deviceID string) {
	si.mu.Lock()
	si.counts[c]++
	si.perDev[deviceID]++
	si.mu.Unlock()
}

// Counts returns how many faults of each class were actually injected.
func (si *ServeInjector) Counts() map[Class]int {
	si.mu.Lock()
	defer si.mu.Unlock()
	out := make(map[Class]int, len(si.counts))
	for c, n := range si.counts {
		out[c] = n
	}
	return out
}
