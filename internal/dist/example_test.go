package dist_test

import (
	"fmt"
	"hash/fnv"

	"mhmgo/internal/dist"
	"mhmgo/internal/pgas"
)

// ExampleSet shows the distributed-ownership pattern that replaced the
// pipeline's gather-to-all collectives: records are routed to an owner rank
// chosen from their content, deduplicated owner-side, stamped with IDs that
// name their owner, looked up remotely through a charged one-sided get, and
// emitted in rank order on rank 0 only.
func ExampleSet() {
	type contig struct {
		ID  int
		Seq string
	}
	ownerOf := func(c contig) int {
		h := fnv.New64a()
		h.Write([]byte(c.Seq))
		return int(h.Sum64() % (1 << 30))
	}
	wire := func(c contig) int { return 16 + len(c.Seq) }

	m := pgas.NewMachine(pgas.Config{Ranks: 4})
	m.Run(func(r *pgas.Rank) {
		// Each rank contributes local records; "ACGT" is produced twice and
		// must survive exactly once.
		local := []contig{{Seq: fmt.Sprintf("AC%02d", r.ID())}}
		if r.ID() < 2 {
			local = append(local, contig{Seq: "ACGT"})
		}

		s := dist.New(r, local, ownerOf, wire, dist.Distributed)
		s.SortLocal(r, func(a, b contig) bool { return a.Seq < b.Seq })
		s.DedupLocal(r, func(a, b contig) bool { return a.Seq == b.Seq })
		s.Renumber(r, func(i, id int) { s.Local(r)[i].ID = id })
		total := s.GlobalLen(r)

		// Any rank can fetch any record by its global ID, which names the
		// owner; remote fetches are charged as one-sided gets.
		first := s.NewReader(r, 0).Get(dist.ID(0, 0))

		if out := s.Emit(r); r.ID() == 0 {
			fmt.Printf("%d distinct contigs, rank 0's first = %q, emitted %d\n", total, first.Seq, len(out))
		}
	})
	// Output:
	// 5 distinct contigs, rank 0's first = "AC03", emitted 5
}
