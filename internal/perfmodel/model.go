// Package perfmodel estimates the execution time of generated GEMM
// kernels on the catalogued devices. It is the substitute for wall-clock
// measurement on the paper's physical testbed (see DESIGN.md §2): a
// roofline over compute, global memory, and local memory, with the
// architectural mechanisms the paper's analysis attributes performance
// differences to — occupancy from registers and local memory, barrier
// cost, coalescing and stride behaviour, block-major vs row-major
// streams, power-of-two bank conflicts, vector-ALU matching, loop
// unrolling, and work-group tail effects.
package perfmodel

import (
	"errors"
	"fmt"
	"math"

	"oclgemm/internal/codegen"
	"oclgemm/internal/device"
	"oclgemm/internal/matrix"
)

// ErrUnsupportedProblem reports a problem shape the kernel cannot run
// (K below the algorithm's minimum).
var ErrUnsupportedProblem = errors.New("perfmodel: problem size unsupported by kernel")

// Breakdown exposes the components of a kernel time estimate for tests,
// ablation and reporting.
type Breakdown struct {
	// Seconds.
	Compute, GlobalMem, LocalMem, Barrier, Launch float64
	Total                                         float64

	// Dimensionless diagnostics.
	WGPerCU    int
	WavesPerCU int
	Overlap    float64 // 0..1 latency-hiding quality
	BusyFrac   float64 // CU utilization including tail rounds
	ALUEff     float64
	MemEffA    float64
	MemEffB    float64
	RegSpill   bool
	PaddedM    int
	PaddedN    int
	PaddedK    int
}

// KernelTime estimates the execution time in seconds of the AᵀB kernel
// described by p on device d for an M×N×K multiplication (sizes are
// padded up to the blocking factors, as the GEMM planner does).
func KernelTime(d *device.Spec, p *codegen.Params, m, n, k int) (Breakdown, error) {
	var bd Breakdown
	if m <= 0 || n <= 0 || k <= 0 {
		return bd, fmt.Errorf("perfmodel: non-positive problem %dx%dx%d", m, n, k)
	}
	if err := p.CheckDevice(d); err != nil {
		return bd, err
	}
	mp := matrix.PadDim(m, p.Mwg)
	np := matrix.PadDim(n, p.Nwg)
	kp := matrix.PadDim(k, p.Kwg)
	if kp < p.MinK() {
		kp = p.MinK()
	}
	bd.PaddedM, bd.PaddedN, bd.PaddedK = mp, np, kp

	r := p.Resources()
	clockHz := d.ClockGHz * d.BoostFactor * 1e9
	esz := p.Precision.Size()

	numWG := (mp / p.Mwg) * (np / p.Nwg)
	iters := kp / p.Kwg
	wgSize := r.WGSize

	// ---- Occupancy ----------------------------------------------------
	wavesPerWG := 1
	if d.Kind == device.GPU {
		wavesPerWG = (wgSize + d.Wavefront - 1) / d.Wavefront
	}
	wgPerCU := d.MaxWGPerCU
	spill := false
	spillFactor := 1.0
	if d.Kind == device.GPU {
		regsPerWI := r.RegWordsPerWI
		if regsPerWI > d.MaxRegsPerWI {
			spill = true
			// Graded penalty: a few spilled values hit cache cheaply,
			// deep spilling approaches the device's SpillPenalty floor.
			over := float64(regsPerWI-d.MaxRegsPerWI) / (0.5 * float64(d.MaxRegsPerWI))
			if over > 1 {
				over = 1
			}
			spillFactor = 1 - float64((1-d.SpillPenalty)*over)
			regsPerWI = d.MaxRegsPerWI
		}
		if byRegs := d.RegFileWords / (regsPerWI * wgSize); byRegs < wgPerCU {
			wgPerCU = byRegs
		}
		if r.LDSBytes > 0 {
			if byLDS := d.LocalMemBytes() / r.LDSBytes; byLDS < wgPerCU {
				wgPerCU = byLDS
			}
		}
		if byWaves := d.MaxWavesPerCU / wavesPerWG; byWaves < wgPerCU {
			wgPerCU = byWaves
		}
		if wgPerCU < 1 {
			// The kernel still launches one group at a time, at the
			// price of heavy spilling / serialization.
			wgPerCU = 1
			spill = true
			spillFactor = d.SpillPenalty
		}
	}
	wavesPerCU := wgPerCU * wavesPerWG
	overlap := math.Min(1, float64(wavesPerCU)/d.WavesForOverlap)
	bd.WGPerCU, bd.WavesPerCU, bd.Overlap = wgPerCU, wavesPerCU, overlap

	// Tail quantization: work-groups are dispatched in rounds of
	// CUs·wgPerCU; the last round may be mostly idle.
	slots := d.ComputeUnits * wgPerCU
	rounds := (numWG + slots - 1) / slots
	busy := float64(numWG) / float64(rounds*slots)
	bd.BusyFrac = busy

	// ---- ALU efficiency -----------------------------------------------
	alu := d.ComputeEff(p.Precision)
	native := d.VecWidth(p.Precision)
	if p.VectorWidth < native {
		alu *= float64(p.VectorWidth) / float64(native)
	} else if p.VectorWidth > native {
		// Oversized vectors split into native-width ops with a small
		// scheduling cost.
		alu *= 0.97
	}
	if ilp := float64(p.Mwi() * p.Nwi()); ilp < d.MinILP {
		alu *= ilp / d.MinILP
	}
	// Loop overhead amortized by unrolling depth Kwi.
	alu *= float64(p.Kwi) / (float64(p.Kwi) + 0.15)
	alu *= spillFactor
	if d.Kind == device.GPU && wgSize%d.Wavefront != 0 {
		alu *= float64(wgSize) / float64(wavesPerWG*d.Wavefront)
	}
	bd.ALUEff = alu
	bd.RegSpill = spill

	flops := 2 * float64(mp) * float64(np) * float64(kp)
	chipFlopsPerSec := float64(d.OpsPerClock(p.Precision)) * clockHz
	tComp := flops / (chipFlopsPerSec * alu)

	// ---- Global memory ------------------------------------------------
	effA := streamEff(d, p.LayoutA, p.SharedA, p.StrideM, r.GlobalLoadWidthA*esz, mp)
	effB := streamEff(d, p.LayoutB, p.SharedB, p.StrideN, r.GlobalLoadWidthB*esz, np)
	bd.MemEffA, bd.MemEffB = effA, effB

	trafficA := absorbed(float64(r.RawAElems), float64(r.UniqueAElems), d.CacheReuseEff)
	trafficB := absorbed(float64(r.RawBElems), float64(r.UniqueBElems), d.CacheReuseEff)
	perIterBytes := (trafficA/effA + trafficB/effB) * float64(esz)
	// Spilled registers consume cache/memory bandwidth as well.
	perIterBytes /= spillFactor
	// C is read (for β) and written once per work-group.
	cBytes := 2 * float64(mp) * float64(np) * float64(esz) / d.CoalesceUnitStride
	totalWeighted := float64(perIterBytes*float64(iters)*float64(numWG)) + cBytes
	tMem := totalWeighted / (d.BandwidthGBs * 1e9)

	// ---- Local memory -------------------------------------------------
	var tLDS float64
	if r.LDSBytes > 0 {
		ldsBytes := float64(r.LDSReadElems+r.UniqueAElems*boolInt(p.SharedA)+r.UniqueBElems*boolInt(p.SharedB)) *
			float64(esz) * float64(iters) * float64(numWG)
		chipLDSBW := float64(d.ComputeUnits) * d.LDSBytesPerClk * clockHz
		tLDS = ldsBytes / chipLDSBW / spillFactor
	}

	// ---- Barriers -----------------------------------------------------
	var tBar float64
	if r.BarriersPerIter > 0 {
		perWGCycles := float64(iters) * float64(r.BarriersPerIter) * d.BarrierCycles
		tBar = perWGCycles * float64(numWG) / (float64(slots) * clockHz)
	}

	// ---- Combine ------------------------------------------------------
	// Even at full occupancy the overlap of compute with memory is not
	// perfect (issue slots are shared, stalls leak); a small fraction of
	// the non-dominant terms always shows through. This is what keeps
	// block-major layouts measurably ahead of row-major even on
	// compute-bound kernels, as the paper observes on every processor.
	const leak = 0.08
	tMax := math.Max(tComp, math.Max(tMem, tLDS))
	tSum := tComp + tMem + tLDS
	tWork := float64(overlap*(tMax+float64(leak*(tSum-tMax)))) + float64((1-overlap)*tSum)
	tWork /= busy
	launch := float64(d.LaunchOverheadUS * 1e-6)
	total := (tWork + tBar) / d.Calib(p.Precision)
	// Physical floor: no calibration may push a kernel past the
	// device's peak throughput (boost included). The knee is soft
	// (p-norm) so kernels near the floor keep a strict ordering
	// instead of collapsing into ties.
	floor := flops / (float64(d.OpsPerClock(p.Precision)) * clockHz)
	total = math.Pow(math.Pow(total, 8)+math.Pow(floor, 8), 1.0/8)
	total += launch

	bd.Compute = tComp
	bd.GlobalMem = tMem
	bd.LocalMem = tLDS
	bd.Barrier = tBar
	bd.Launch = launch
	bd.Total = total
	return bd, nil
}

// RoutineBreakdown is the modeled cost of one full GEMM routine call:
// the kernel plus the §III-D layout-change copies the §IV-B
// implementation runs before it.
type RoutineBreakdown struct {
	Kernel Breakdown
	// CopySeconds is the modeled time of the layout-change copies of A
	// and B (and the C pad copy when padding is needed).
	CopySeconds float64
	// TotalSeconds includes kernel and copies.
	TotalSeconds float64
}

// RoutineTime estimates the full routine: KernelTime plus the copy
// overhead of re-laying-out A, B (and padding C). The GEMM type does
// not change the cost — the copy pass handles transposition at the same
// price — which is why the paper's Table III shows almost
// type-independent performance. The multi-device scheduler prices tiles
// with this estimate when partitioning one GEMM across a pool.
func RoutineTime(d *device.Spec, p *codegen.Params, m, n, k int) (RoutineBreakdown, error) {
	var out RoutineBreakdown
	kb, err := KernelTime(d, p, m, n, k)
	if err != nil {
		return out, err
	}
	mp, np, kp := kb.PaddedM, kb.PaddedN, kb.PaddedK
	esz := float64(p.Precision.Size())

	// Copy kernels read the source and write the padded destination.
	bytes := float64((float64(m*k) + float64(kp*mp)) * esz) // A
	bytes += float64((float64(k*n) + float64(kp*np)) * esz) // B
	if mp != m || np != n {
		bytes += float64((float64(m*n) + float64(mp*np)) * esz) // C pad copy
	}
	copyBW := d.BandwidthGBs * 1e9 * d.CopyBWFrac
	out.CopySeconds = bytes/copyBW + float64(2*d.LaunchOverheadUS*1e-6)
	out.Kernel = kb
	out.TotalSeconds = kb.Total + out.CopySeconds
	return out, nil
}

// KernelGFlops returns the modeled performance in GFlop/s for the
// nominal (unpadded) problem size, as the paper reports it.
func KernelGFlops(d *device.Spec, p *codegen.Params, m, n, k int) (float64, error) {
	bd, err := KernelTime(d, p, m, n, k)
	if err != nil {
		return 0, err
	}
	return 2 * float64(m) * float64(n) * float64(k) / bd.Total / 1e9, nil
}

// streamEff computes the efficiency of one operand's global-memory
// stream: layout streaming quality, power-of-two channel conflicts for
// row-major streams, work-item coalescing, and load width.
func streamEff(d *device.Spec, layout matrix.Layout, shared, strided bool, loadBytes, leadingDim int) float64 {
	eff := 1.0
	if layout == matrix.LayoutRowMajor {
		eff *= d.RowMajorEff
		// Channel/bank conflicts when the row stride is a large power
		// of two (paper: sizes that are multiples of 2048 deteriorate
		// drastically without block-major layouts).
		switch {
		case leadingDim%2048 == 0:
			eff *= d.BankConflictFactor
		case leadingDim%1024 == 0:
			eff *= (d.BankConflictFactor + 1) / 2
		case leadingDim%512 == 0:
			eff *= (d.BankConflictFactor + 3) / 4
		}
	}
	if shared {
		// Cooperative loads are emitted in coalesced order regardless
		// of the compute-phase stride mode.
		eff *= math.Max(d.CoalesceUnitStride, d.CoalesceNonUnit)
	} else if strided {
		eff *= d.CoalesceNonUnit
	} else {
		eff *= d.CoalesceUnitStride
	}
	if d.Kind == device.GPU && loadBytes < 8 {
		eff *= 0.9
	}
	return eff
}

// absorbed returns the effective element traffic after the cache absorbs
// a fraction of the redundant (raw − unique) requests.
func absorbed(raw, unique, reuse float64) float64 {
	return unique + float64((raw-unique)*(1-reuse))
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}
