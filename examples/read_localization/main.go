// Read_localization demonstrates the paper's Figure 3 ablation: run the
// pipeline with and without the read-localization optimization (Section
// II-I — keep the read pairs that align to one contig together, in contig
// order, in even blocks over the ranks) and show its effect on the simulated
// time of the k-mer analysis and alignment stages as node counts grow. It
// prints the same table as `go run ./cmd/mhmbench -exp fig3`.
package main

import (
	"fmt"
	"log"

	"mhmgo/internal/experiments"
)

func main() {
	res, err := experiments.Fig3ReadLocalization(experiments.DefaultScale())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(res.Format())
}
