// MG64 demonstrates the paper's Table I quality evaluation: assemble an
// MG64-like synthetic community (skewed abundances) with MetaHipMer-Go and
// the baseline assembler proxies, and print a Table-I-style comparison of
// genome fraction, misassemblies, rRNA recovery and N50. It prints the same
// table as `go run ./cmd/mhmbench -exp table1`.
package main

import (
	"fmt"
	"log"

	"mhmgo/internal/experiments"
)

func main() {
	res, err := experiments.Table1Quality(experiments.DefaultScale())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(res.Format())
}
