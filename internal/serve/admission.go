package serve

import (
	"sync"
	"sync/atomic"
	"time"

	"oclgemm/internal/obs"
)

// admission is the server's two-layer load shedder.
//
// Layer 1 is a global queue-depth bound: when more requests are in the
// building than maxQueue, new arrivals are shed immediately (429) —
// queueing theory's answer to metastable overload: past the knee,
// queueing helps nobody, so shed early and let clients back off.
//
// Layer 2 is a per-tenant token bucket denominated in Mflop: a tenant
// accrues rate Mflop/s of capacity up to a burst ceiling, and each
// request costs its arithmetic volume (2·m·n·k). A tenant that
// overdrives its quota is shed with a Retry-After telling it exactly
// when the bucket covers the rejected request, while other tenants'
// buckets — and the shared engine behind them — stay unaffected.
type admission struct {
	rate, burst float64 // Mflop/s accrual, Mflop ceiling
	maxQueue    int64

	depth atomic.Int64

	mu      sync.Mutex
	tenants map[string]*tenant

	shedQueue, shedQuota *obs.Counter
	queueDepth           *obs.Gauge
	reg                  *obs.Registry
}

// maxTenants bounds the tenant table. X-Tenant is client-chosen, so
// names past the cap share one "other" record: its bucket and its
// series.
const maxTenants = 256

// tenant is one tenant's record, resolved once per name: its token
// bucket and its instruments.
type tenant struct {
	name     string
	requests *obs.Counter   // serve.requests{tenant=...}
	seconds  *obs.Histogram // serve.request.seconds{tenant=...}
	shed     *obs.Counter   // serve.shed.quota{tenant=...}

	mu     sync.Mutex
	tokens float64
	last   time.Time
}

func newAdmission(rate, burst float64, maxQueue int, reg *obs.Registry) *admission {
	return &admission{
		rate: rate, burst: burst, maxQueue: int64(maxQueue),
		tenants:    make(map[string]*tenant),
		shedQueue:  reg.Counter("serve.shed.queue"),
		shedQuota:  reg.Counter("serve.shed.quota"),
		queueDepth: reg.Gauge("serve.queue.depth"),
		reg:        reg,
	}
}

// enter reserves a queue slot, reporting false (shed) when the
// building is full. Every successful enter must be paired with leave.
func (ad *admission) enter() bool {
	if d := ad.depth.Add(1); d > ad.maxQueue {
		ad.depth.Add(-1)
		ad.shedQueue.Inc()
		return false
	}
	ad.queueDepth.Set(ad.depth.Load())
	return true
}

func (ad *admission) leave() {
	ad.queueDepth.Set(ad.depth.Add(-1))
}

// tenant returns the named tenant's record, creating it on first use;
// past maxTenants names, unknown names fold into "other".
func (ad *admission) tenant(name string) *tenant {
	ad.mu.Lock()
	defer ad.mu.Unlock()
	t := ad.tenants[name]
	if t != nil {
		return t
	}
	if len(ad.tenants) >= maxTenants {
		name = "other"
		if t = ad.tenants[name]; t != nil {
			return t
		}
	}
	t = &tenant{
		name:     name,
		requests: ad.reg.Counter(obs.Label("serve.requests", "tenant", name)),
		seconds:  ad.reg.Histogram(obs.Label("serve.request.seconds", "tenant", name)),
		shed:     ad.reg.Counter(obs.Label("serve.shed.quota", "tenant", name)),
		tokens:   ad.burst,
	}
	ad.tenants[name] = t
	return t
}

// admit charges mflop against the tenant's bucket. When the bucket
// cannot cover the request, it reports false plus how long the tenant
// must wait for the bucket to refill enough — the 429 Retry-After.
func (ad *admission) admit(t *tenant, mflop float64, now time.Time) (bool, time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.last.IsZero() {
		t.tokens = min(ad.burst, t.tokens+now.Sub(t.last).Seconds()*ad.rate)
	}
	t.last = now
	if t.tokens >= mflop {
		t.tokens -= mflop
		return true, 0
	}
	t.shed.Inc()
	ad.shedQuota.Inc()
	need := mflop
	if need > ad.burst {
		need = ad.burst // a request bigger than the burst can at best wait for a full bucket
	}
	wait := time.Duration((need - t.tokens) / ad.rate * float64(time.Second))
	if wait < 10*time.Millisecond {
		wait = 10 * time.Millisecond
	}
	return false, wait
}
