// Sensitivity sweep: vary ACIC's key parameters (i-Filter slots, HRT size,
// history width, PT counter width, CSHR tag width) on one workload, in the
// spirit of the paper's Fig 15.
//
//	go run ./examples/sensitivity [workload]
package main

import (
	"fmt"
	"log"
	"os"

	"acic/internal/experiments"
	"acic/internal/icache"
	"acic/internal/stats"
	"acic/internal/workload"
)

func main() {
	app := "media-streaming"
	if len(os.Args) > 1 {
		app = os.Args[1]
	}
	prof, ok := workload.ByName(app)
	if !ok {
		log.Fatalf("unknown workload %q", app)
	}
	w := experiments.Prepare(prof, 300_000)
	opts := experiments.DefaultOptions()
	base, err := experiments.Run(w, experiments.Baseline, opts)
	if err != nil {
		log.Fatal(err)
	}

	tbl := &stats.Table{Header: []string{"variant", "speedup", "MPKI reduction", "admit%"}}
	for _, v := range experiments.Fig15Variants {
		// Each row is a scheme name: "acic" or an "acic@<variant>".
		sub, err := experiments.NewScheme(v.Scheme, w)
		if err != nil {
			log.Fatal(err)
		}
		res, err := experiments.RunSubsystem(w, sub, opts)
		if err != nil {
			log.Fatal(err)
		}
		tbl.AddRow(v.Name,
			fmt.Sprintf("%.4f", experiments.Speedup(base, res)),
			stats.Percent(experiments.MPKIReduction(base, res)),
			fmt.Sprintf("%.1f", 100*sub.(*icache.Complex).ACIC().AdmitFraction()))
	}
	fmt.Printf("%s ACIC sensitivity (Fig 15 axes):\n%s", app, tbl.String())
}
