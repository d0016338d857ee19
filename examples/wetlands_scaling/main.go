// Wetlands_scaling demonstrates the paper's Figures 4 and 5: assemble a
// fixed, uneven (soil-like) community on increasing virtual node counts and
// print the strong-scaling curve (speedup and efficiency in simulated
// seconds) plus the per-stage runtime breakdown. Without arguments it prints
// the same tables as `go run ./cmd/mhmbench -exp fig4`.
//
// By default it sweeps 2, 4, 8 and 16 nodes (8–64 ranks at 4 ranks per
// node). Pass node counts as arguments to sweep other machine sizes — the
// pooled scheduler makes even P=4096 cheap to simulate on a laptop:
//
//	go run ./examples/wetlands_scaling 256 1024   # P=1024, P=4096
package main

import (
	"fmt"
	"log"
	"os"
	"strconv"

	"mhmgo/internal/experiments"
)

func main() {
	scale := experiments.DefaultScale()
	if args := os.Args[1:]; len(args) > 0 {
		scale.NodeCounts = nil
		for _, a := range args {
			n, err := strconv.Atoi(a)
			if err != nil || n < 1 {
				fmt.Fprintf(os.Stderr, "usage: wetlands_scaling [node counts...]; bad node count %q\n", a)
				os.Exit(2)
			}
			scale.NodeCounts = append(scale.NodeCounts, n)
		}
	}
	res, err := experiments.Fig4StrongScaling(scale)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(res.Format())
}
