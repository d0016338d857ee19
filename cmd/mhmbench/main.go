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

	run := func(name string, f func() string) {
		fmt.Printf("==== %s ====\n", name)
		fmt.Println(f())
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
		run("Table I: assembly quality", func() string { return experiments.Table1Quality(scale).Format() })
	}
	if want("fig3") {
		run("Figure 3: read localization", func() string { return experiments.Fig3ReadLocalization(scale).Format() })
	}
	if want("fig4") {
		run("Figures 4 & 5: strong scaling and stage breakdown", func() string { return experiments.Fig4StrongScaling(scale).Format() })
	}
	if want("raymeta") {
		run("Ray Meta comparison", func() string { return experiments.RayMetaComparison(scale).Format() })
	}
	if want("table2") {
		run("Table II: weak scaling", func() string { return experiments.Table2WeakScaling(scale).Format() })
	}
	if want("grand") {
		run("Grand challenge: full vs subset", func() string { return experiments.GrandChallengeFullVsSubset(scale).Format() })
	}
	if want("fig6") {
		run("Figure 6: per-genome NGA50", func() string { return experiments.Fig6NGA50PerGenome(scale).Format() })
	}
	if want("ablation") {
		run("Ablations", func() string { return experiments.Ablations(scale).Format() })
	}
	if !matched {
		log.Fatalf("mhmbench: unknown experiment %q", *exp)
	}
}
