// Static partitioning: C is cut into a grid of row/column tiles (K is
// never split — see the package comment on bit-identical accumulation),
// and the tiles are dealt to members by earliest-completion-time list
// scheduling over modeled per-tile device times. Work stealing then
// corrects whatever the model got wrong at run time.
package sched

import (
	"fmt"
	"math"

	"oclgemm/internal/blas"
	"oclgemm/internal/matrix"
)

// tile is one C panel: rows [i0, i0+th) × cols [j0, j0+tw).
type tile struct {
	i0, j0, th, tw int
	attempts       int
}

// tileQuantum rounds auto-chosen tile edges so most tiles pad cleanly
// against the members' work-group blockings.
const tileQuantum = 32

// tileDims picks the tile edge sizes for an m×n C over live members.
func (p *Pool) tileDims(m, n, live int) (tm, tn int) {
	tm, tn = p.opts.TileM, p.opts.TileN
	if tm > 0 && tn > 0 {
		return min(tm, m), min(tn, n)
	}
	target := float64(tilesPerMember * live)
	// Aspect-proportional grid: gm/gn ≈ m/n, gm·gn ≈ target.
	gm := int(math.Ceil(math.Sqrt(target * float64(m) / float64(n))))
	gm = max(1, min(gm, m))
	gn := max(1, min(int(math.Ceil(target/float64(gm))), n))
	tm = roundTile((m+gm-1)/gm, m)
	tn = roundTile((n+gn-1)/gn, n)
	return tm, tn
}

func roundTile(t, dim int) int {
	if t >= dim {
		return dim
	}
	if r := t % tileQuantum; r != 0 {
		t += tileQuantum - r
	}
	return min(t, dim)
}

// tiles cuts C row-major into the grid.
func tilesFor(m, n, tm, tn int) []*tile {
	var out []*tile
	for i0 := 0; i0 < m; i0 += tm {
		th := min(tm, m-i0)
		for j0 := 0; j0 < n; j0 += tn {
			out = append(out, &tile{i0: i0, j0: j0, th: th, tw: min(tn, n-j0)})
		}
	}
	return out
}

// tileSeconds models one tile's full-routine time on a member; a member
// the model cannot price gets an effectively infinite cost so the
// greedy assigner avoids it unless it is the only choice. "Cannot
// price" includes degenerate model output — zero, negative, NaN or
// infinite seconds — which would otherwise corrupt every downstream
// load comparison (NaN in particular poisons the greedy argmin, since
// it compares false against everything).
func tileSeconds(mb *member, prec matrix.Precision, th, tw, k int) float64 {
	bd, err := mb.impl(prec).Time(th, tw, k)
	if err != nil || math.IsNaN(bd.TotalSeconds) || bd.TotalSeconds <= 0 {
		return math.Inf(1)
	}
	return bd.TotalSeconds
}

// assign deals tiles to live members greedily: each tile (in row-major
// order, so member queues stay spatially contiguous) goes to the member
// whose modeled completion time grows least. Heterogeneity falls out
// naturally — a member whose tile cost exceeds the makespan it would
// join simply never gets picked.
func assign(tiles []*tile, live []*member, prec matrix.Precision, k int) [][]*tile {
	queues := make([][]*tile, len(live))
	loads := make([]float64, len(live))
	// Per-member cost cache keyed by tile shape (edge tiles differ).
	type shape struct{ th, tw int }
	costs := make([]map[shape]float64, len(live))
	for i := range costs {
		costs[i] = make(map[shape]float64)
	}
	for ti, t := range tiles {
		best, bestDone := -1, math.Inf(1)
		for i, mb := range live {
			c, ok := costs[i][shape{t.th, t.tw}]
			if !ok {
				c = tileSeconds(mb, prec, t.th, t.tw, k)
				costs[i][shape{t.th, t.tw}] = c
			}
			if done := loads[i] + c; done < bestDone {
				best, bestDone = i, done
			}
		}
		if best < 0 {
			// No member can be priced (every cost is +Inf, so the argmin
			// never fires); deal by tile index so the round-robin actually
			// rotates — keying on a queue length stops rotating the moment
			// that queue grows.
			queues[ti%len(live)] = append(queues[ti%len(live)], t)
			continue
		}
		queues[best] = append(queues[best], t)
		loads[best] = bestDone
	}
	return queues
}

// MemberEstimate is one member's share of an Estimate.
type MemberEstimate struct {
	// Device is the member's device ID; Kernel describes the parameter
	// provenance for the estimated precision.
	Device, Kernel string
	// SoloGFlops is the member's modeled full-problem throughput were
	// it to run the whole GEMM alone (copy overhead included).
	SoloGFlops float64
	// Tiles and Share are the statically assigned tile count and flop
	// fraction; Seconds the modeled time to finish them.
	Tiles   int
	Share   float64
	Seconds float64
}

// Estimate is the modeled outcome of partitioning one GEMM across the
// pool: the static schedule's makespan against the best single member.
type Estimate struct {
	M, N, K   int
	Precision matrix.Precision
	// TileM, TileN and Tiles describe the partition grid.
	TileM, TileN, Tiles int
	Members             []MemberEstimate
	// Seconds is the modeled makespan (slowest member's finish time);
	// GFlops the aggregate throughput it implies.
	Seconds float64
	GFlops  float64
	// BestSingleDevice and BestSingleGFlops identify the fastest
	// member running the whole problem alone; Speedup is the pool's
	// aggregate over it.
	BestSingleDevice string
	BestSingleGFlops float64
	Speedup          float64
}

// Estimate models a pool execution of an m×n×k GEMM without running
// anything: the same partition and static assignment Run would use,
// priced by the performance model.
func (p *Pool) Estimate(prec matrix.Precision, m, n, k int) (*Estimate, error) {
	if m <= 0 || n <= 0 || k <= 0 {
		return nil, fmt.Errorf("sched: non-positive problem %dx%dx%d", m, n, k)
	}
	live := p.alive()
	if len(live) == 0 {
		return nil, ErrNoDevices
	}
	tm, tn := p.tileDims(m, n, len(live))
	tiles := tilesFor(m, n, tm, tn)
	queues := assign(tiles, live, prec, k)

	est := &Estimate{
		M: m, N: n, K: k, Precision: prec,
		TileM: tm, TileN: tn, Tiles: len(tiles),
	}
	flops := blas.FlopCount(m, n, k)
	for i, mb := range live {
		me := MemberEstimate{Device: mb.dev.ID, Kernel: mb.how(prec), Tiles: len(queues[i])}
		if gf, err := mb.impl(prec).GFlops(m, n, k); err == nil {
			me.SoloGFlops = gf
		}
		var tileFlops float64
		for _, t := range queues[i] {
			me.Seconds += tileSeconds(mb, prec, t.th, t.tw, k)
			tileFlops += blas.FlopCount(t.th, t.tw, k)
		}
		me.Share = tileFlops / flops
		est.Seconds = math.Max(est.Seconds, me.Seconds)
		if me.SoloGFlops > est.BestSingleGFlops {
			est.BestSingleGFlops = me.SoloGFlops
			est.BestSingleDevice = mb.dev.ID
		}
		est.Members = append(est.Members, me)
	}
	if !isFinitePositive(est.Seconds) {
		return nil, fmt.Errorf("%w: %s %dx%dx%d (modeled makespan %v)",
			ErrUnpriceable, prec.GEMMName(), m, n, k, est.Seconds)
	}
	est.GFlops = flops / est.Seconds / 1e9
	if est.BestSingleGFlops > 0 {
		est.Speedup = est.GFlops / est.BestSingleGFlops
	}
	return est, nil
}

// isFinitePositive reports a usable modeled duration: > 0, not NaN,
// not infinite.
func isFinitePositive(s float64) bool {
	return s > 0 && !math.IsInf(s, 1)
}

// how returns the parameter provenance for a precision.
func (mb *member) how(prec matrix.Precision) string {
	if prec == matrix.Double {
		return mb.how64
	}
	return mb.how32
}
