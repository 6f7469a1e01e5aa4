// Quickstart: simulate one datacenter workload on the baseline LRU i-cache
// and on ACIC, and print the headline metrics (speedup and L1i MPKI
// reduction). This is the minimal end-to-end use of the library:
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"acic/internal/analysis"
	"acic/internal/experiments"
	"acic/internal/workload"
)

func main() {
	prof, ok := workload.ByName("media-streaming")
	if !ok {
		log.Fatal("profile not found")
	}

	// Prepare generates the synthetic trace, annotates its branches with
	// the TAGE/BTB/RAS front end, and builds the next-use oracle.
	w := experiments.Prepare(prof, 400_000)
	fmt.Printf("workload %s: %d instructions, %d-block code footprint\n",
		prof.Name, w.Prog.Len(), analysis.WorkingSet(w.Blocks, 1))

	opts := experiments.DefaultOptions() // FDP platform, 10% warmup
	base, err := experiments.Run(w, experiments.Baseline, opts)
	if err != nil {
		log.Fatal(err)
	}
	acic, err := experiments.Run(w, "acic", opts)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("baseline (LRU+FDP): %d cycles, IPC %.3f, L1i MPKI %.2f\n",
		base.Cycles, base.IPC(), base.MPKI())
	fmt.Printf("ACIC:               %d cycles, IPC %.3f, L1i MPKI %.2f\n",
		acic.Cycles, acic.IPC(), acic.MPKI())
	fmt.Printf("speedup %.4f, MPKI reduction %.2f%%\n",
		experiments.Speedup(base, acic), 100*experiments.MPKIReduction(base, acic))
}
