// Command mhmbench regenerates the tables and figures of the paper's
// evaluation section on the simulated substrate. Each experiment prints a
// table whose shape can be compared against the paper (PAPER.md's "The
// evaluation" table maps each figure and table to its driver).
package main

import (
	"flag"
	"fmt"
	"log"
	"strings"

	"mhmgo/internal/experiments"
)

func main() {
	var (
		exp   = flag.String("exp", "all", "experiment: table1|fig3|fig4|fig5|raymeta|table2|grand|fig6|ablation|all")
		quick = flag.Bool("quick", false, "use the minimal quick scale")
	)
	flag.Parse()

	scale := experiments.DefaultScale()
	if *quick {
		scale = experiments.QuickScale()
	}

	// run prints one experiment's table, or exits non-zero with the error of
	// the assembly that failed: a short table would pass for a result.
	run := func(name string, res interface{ Format() string }, err error) {
		if err != nil {
			log.Fatalf("mhmbench: %v", err)
		}
		fmt.Printf("==== %s ====\n", name)
		fmt.Println(res.Format())
	}

	selected := strings.ToLower(*exp)
	matched := false
	want := func(name string) bool {
		if selected == "all" || selected == name {
			matched = true
			return true
		}
		// fig5 is produced by the same runs as fig4.
		if name == "fig4" && selected == "fig5" {
			matched = true
			return true
		}
		return false
	}

	if want("table1") {
		res, err := experiments.Table1Quality(scale)
		run("Table I: assembly quality", res, err)
	}
	if want("fig3") {
		res, err := experiments.Fig3ReadLocalization(scale)
		run("Figure 3: read localization", res, err)
	}
	if want("fig4") {
		res, err := experiments.Fig4StrongScaling(scale)
		run("Figures 4 & 5: strong scaling and stage breakdown", res, err)
	}
	if want("raymeta") {
		res, err := experiments.RayMetaComparison(scale)
		run("Ray Meta comparison", res, err)
	}
	if want("table2") {
		res, err := experiments.Table2WeakScaling(scale)
		run("Table II: weak scaling", res, err)
	}
	if want("grand") {
		res, err := experiments.GrandChallengeFullVsSubset(scale)
		run("Grand challenge: full vs subset", res, err)
	}
	if want("fig6") {
		res, err := experiments.Fig6NGA50PerGenome(scale)
		run("Figure 6: per-genome NGA50", res, err)
	}
	if want("ablation") {
		res, err := experiments.Ablations(scale)
		run("Ablations", res, err)
	}
	if !matched {
		log.Fatalf("mhmbench: unknown experiment %q", *exp)
	}
}
