// Command gemmtune runs the auto-tuner on one simulated device and
// prints the fastest kernel's parameters (a Table II column) and its
// performance curve (a Fig. 7 line).
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"time"

	"oclgemm/internal/core"
	"oclgemm/internal/experiments"
	"oclgemm/internal/matrix"
	"oclgemm/internal/obs"
	"oclgemm/internal/tunedb"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		if err != flag.ErrHelp {
			fmt.Fprintln(os.Stderr, "gemmtune:", err)
		}
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("gemmtune", flag.ContinueOnError)
	dev := fs.String("device", "tahiti", "device ID (tahiti, cayman, kepler, fermi, sandybridge, bulldozer, cypress)")
	precision := fs.String("precision", "single", "single or double")
	budget := fs.Int("budget", 25000, "stage-1 candidate budget (the paper measures tens of thousands)")
	maxSize := fs.Int("maxsize", 8192, "largest stage-2 problem size")
	finalists := fs.Int("finalists", 50, "kernels re-measured across sizes in stage 2")
	showSource := fs.Bool("source", false, "also print the winning kernel's OpenCL C source")
	savePath := fs.String("save", "", "persist the result into this tuning-database JSON file")
	journal := fs.String("journal", "", "checkpoint stage-1 progress to this file; re-running resumes")
	evalTimeout := fs.Duration("timeout", 0, "per-evaluation timeout (0 = none); hung kernels are rejected")
	retries := fs.Int("retries", 0, "retries for transient evaluation failures")
	verify := fs.Bool("verify", false, "run finalists on the simulated runtime and disqualify wrong results")
	metrics := fs.Bool("metrics", false, "print the search's metrics registry after the result")
	if err := fs.Parse(args); err != nil {
		return err
	}

	d, err := experiments.Device(*dev)
	if err != nil {
		return err
	}
	prec := matrix.Single
	if *precision == "double" {
		prec = matrix.Double
	} else if *precision != "single" {
		return fmt.Errorf("unknown precision %q", *precision)
	}

	var reg *obs.Registry
	if *metrics {
		reg = obs.NewRegistry()
	}
	tn, err := core.New(core.Options{
		Device: d, Precision: prec,
		MaxCandidates: *budget, MaxSize: *maxSize, Finalists: *finalists,
		EvalTimeout: *evalTimeout, MaxRetries: *retries,
		Verify: *verify, JournalPath: *journal,
		Obs: reg,
	})
	if err != nil {
		return err
	}
	start := time.Now()
	sel, err := tn.Search()
	if err != nil {
		return err
	}
	elapsed := time.Since(start)

	b := sel.Best
	p := b.Params
	fmt.Fprintf(stdout, "Device:        %s\n", d)
	fmt.Fprintf(stdout, "Routine:       %s (C <- alpha*A^T*B + beta*C kernel)\n", prec.GEMMName())
	fmt.Fprintf(stdout, "Search:        %d valid variants, %d measured (%d tested), %d rejected, stage-2 %d kernels, %s\n",
		sel.Stats.Enumerated, sel.Stats.Measured, sel.Stats.Tested, sel.Stats.Rejected,
		sel.Stats.Stage2, elapsed.Round(time.Millisecond))
	if len(sel.Stats.RejectedBy) > 0 {
		causes := make([]core.RejectCause, 0, len(sel.Stats.RejectedBy))
		for c := range sel.Stats.RejectedBy {
			causes = append(causes, c)
		}
		sort.Slice(causes, func(i, j int) bool { return causes[i] < causes[j] })
		fmt.Fprintf(stdout, "Rejects:      ")
		for _, c := range causes {
			fmt.Fprintf(stdout, " %s=%d", c, sel.Stats.RejectedBy[c])
		}
		fmt.Fprintln(stdout)
	}
	if sel.Stats.Resumed > 0 {
		fmt.Fprintf(stdout, "Resumed:       %d stage-1 measurements replayed from %s\n", sel.Stats.Resumed, *journal)
	}
	if *verify {
		fmt.Fprintf(stdout, "Verified:      %d finalists passed the correctness gate\n", sel.Stats.Verified)
	}
	fmt.Fprintf(stdout, "\nFastest kernel (Table II column):\n")
	fmt.Fprintf(stdout, "  Mwg,Nwg,Kwg:   %d,%d,%d\n", p.Mwg, p.Nwg, p.Kwg)
	fmt.Fprintf(stdout, "  Mwi,Nwi,Kwi:   %d,%d,%d\n", p.Mwi(), p.Nwi(), p.Kwi)
	fmt.Fprintf(stdout, "  MdimC,NdimC:   %d,%d\n", p.MdimC, p.NdimC)
	if p.SharedA {
		fmt.Fprintf(stdout, "  MdimA,KdimA:   %d,%d\n", p.MdimA, p.KdimA())
	}
	if p.SharedB {
		fmt.Fprintf(stdout, "  KdimB,NdimB:   %d,%d\n", p.KdimB(), p.NdimB)
	}
	fmt.Fprintf(stdout, "  Vector width:  %d\n", p.VectorWidth)
	fmt.Fprintf(stdout, "  Stride M/N:    %v/%v\n", p.StrideM, p.StrideN)
	fmt.Fprintf(stdout, "  Shared A/B:    %v/%v\n", p.SharedA, p.SharedB)
	fmt.Fprintf(stdout, "  Layout A,B:    %s,%s\n", p.LayoutA, p.LayoutB)
	fmt.Fprintf(stdout, "  Algorithm:     %s\n", p.Algorithm)
	fmt.Fprintf(stdout, "\nMax performance: %.0f GFlop/s at N=%d (%.0f%% of peak %.0f)\n",
		b.Best, b.BestN, 100*b.Best/d.PeakGFlops(prec), d.PeakGFlops(prec))

	fmt.Fprintf(stdout, "\nPerformance curve:\n")
	fmt.Fprintf(stdout, "  %8s  %10s\n", "N", "GFlop/s")
	for _, pt := range b.Curve {
		fmt.Fprintf(stdout, "  %8d  %10.1f\n", pt.N, pt.GFlops)
	}

	if *metrics {
		fmt.Fprintf(stdout, "\nSearch metrics:\n%s", reg.Snapshot().Render())
	}

	if *showSource {
		src, err := p.GenerateSource()
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "\n%s", src)
	}

	if *savePath != "" {
		db, err := tunedb.Load(*savePath)
		if err != nil {
			// Only a genuinely missing file starts fresh; a corrupt or
			// version-mismatched database must not be clobbered.
			if !errors.Is(err, os.ErrNotExist) {
				return err
			}
			db = &tunedb.DB{}
		}
		db.Put(tunedb.FromParams(d.ID, p, b.Best, b.BestN, "search"))
		if err := db.Save(*savePath); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "\nsaved to %s\n", *savePath)
	}
	return nil
}
