package main

import (
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"mhmgo/internal/aligner"
	"mhmgo/internal/checkpoint"
	"mhmgo/internal/dbg"
	"mhmgo/internal/dht"
	"mhmgo/internal/dist"
	"mhmgo/internal/fastx"
	"mhmgo/internal/kmeranalysis"
	"mhmgo/internal/pgas"
	"mhmgo/internal/seq"
	"mhmgo/internal/serve"
)

// Microprobes time one exported entry point of a layer directly, on seeded
// fixtures or on the workload's own files, so a kernel-level change has a
// number of its own next to the end-to-end ones. Every probe reports the
// median of several timed batches.

const (
	probeBatches = 7
	probeRounds  = 7
)

// secondsPerBatch runs fn probeBatches times after one warm-up and returns
// the median duration.
func secondsPerBatch(fn func()) float64 {
	fn()
	var took []float64
	for i := 0; i < probeBatches; i++ {
		t0 := time.Now()
		fn()
		took = append(took, time.Since(t0).Seconds())
	}
	return median(took)
}

// spmdSeconds runs probeRounds rounds of body on every rank of the machine
// and returns the median host seconds per round, stamped by
// rank 0 between two barriers (so a round covers every rank's share).
// prepare runs once per rank before the first round.
func spmdSeconds(m *pgas.Machine, prepare func(r *pgas.Rank), body func(r *pgas.Rank, round int)) float64 {
	var took []float64
	m.Run(func(r *pgas.Rank) {
		if prepare != nil {
			prepare(r)
		}
		for round := 0; round <= probeRounds; round++ {
			r.Barrier()
			t0 := time.Now()
			body(r, round)
			r.Barrier()
			if r.ID() == 0 && round > 0 { // round 0 warms up
				took = append(took, time.Since(t0).Seconds())
			}
		}
	})
	return median(took)
}

// mix is splitmix64: a cheap well-mixed hash for probe keys.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// perRank spreads a machine-wide amount of probe work over the ranks.
func perRank(total, ranks int) int { return max(1, total/ranks) }

// runProbes measures every [P] metric for one workload. files are the
// workload's FASTQ files, jobBody one serve job body (nil on batch
// workloads).
func runProbes(tr *tracer, parent int, w workload, seed int64, reads []seq.Read, files []string, dir string, jobBody []byte, m metrics) error {
	begin := time.Now()
	P := w.ranks
	machine := pgas.NewMachine(pgas.Config{Ranks: P, RanksPerNode: w.ranksPerNode, Workers: benchProcs})

	// kmeranalysis: k-mer observation extraction over the workload's reads.
	sample := reads[:min(len(reads), 2000)]
	kopts := kmeranalysis.DefaultOptions(21)
	var obs []kmeranalysis.Observation
	var codes []byte
	m.timed("kmeranalysis.extract_ns_per_read", 1e9/float64(len(sample))*secondsPerBatch(func() {
		for _, rd := range sample {
			obs, codes = kmeranalysis.AppendObservations(obs[:0], codes, rd, kopts)
		}
	}))

	// aligner: seed extension of a 100-base read with three mismatches
	// against a 2,000-base contig, forward and reverse.
	rng := rand.New(rand.NewSource(seed))
	contig := dbg.Contig{ID: 7, Seq: make([]byte, 2000)}
	for i := range contig.Seq {
		contig.Seq[i] = seq.BaseToChar(byte(rng.Intn(4)))
	}
	readSeq := append([]byte(nil), contig.Seq[800:900]...)
	for i := 0; i < 3; i++ {
		readSeq[rng.Intn(len(readSeq))] = seq.BaseToChar(byte(rng.Intn(4)))
	}
	aopts := aligner.DefaultOptions(31)
	hitF := aligner.SeedHit{ContigID: contig.ID, Pos: 816}
	hitR := aligner.SeedHit{ContigID: contig.ID, Pos: 820, Reverse: true}
	scratch := aligner.NewScratch()
	scratch.BeginRead(readSeq)
	const extends = 20000
	m.timed("aligner.extend_ns", 1e9/(2*extends)*secondsPerBatch(func() {
		for i := 0; i < extends; i++ {
			aligner.ExtendKernel(readSeq, contig, hitF, 16, false, aopts, scratch)
			aligner.ExtendKernel(readSeq, contig, hitR, 16, true, aopts, scratch)
		}
	}))

	// pgas at the workload's machine shape: what one rank pays on the host
	// for a barrier, an all-reduce, and one routed item of a sparse exchange.
	syncs := perRank(1<<15, P)
	m.timed("pgas.barrier_host_ns", 1e9/float64(syncs*P)*spmdSeconds(machine, nil, func(r *pgas.Rank, _ int) {
		for i := 0; i < syncs; i++ {
			r.Barrier()
		}
	}))
	m.timed("pgas.allreduce_host_ns", 1e9/float64(syncs*P)*spmdSeconds(machine, nil, func(r *pgas.Rank, _ int) {
		for i := 0; i < syncs; i++ {
			pgas.AllReduce(r, 1, pgas.ReduceSum)
		}
	}))
	const exchItems, exchBytes = 64, 32
	exchanges := perRank(1<<12, P)
	items := make([]int, exchItems)
	m.timed("pgas.exchange_host_ns_per_item", 1e9/float64(exchanges*exchItems*P)*spmdSeconds(machine, nil, func(r *pgas.Rank, _ int) {
		for i := 0; i < exchanges; i++ {
			pgas.ExchangeFunc(r, items,
				func(i int, _ int) int { return (r.ID() + i + 1) % P },
				func(int) int { return exchBytes })
		}
	}))

	// dht: aggregated update-only phase, then reads of the frozen table.
	// Every update round inserts fresh keys, as k-mer counting mostly does.
	keysPerRank := perRank(1<<16, P)
	table := dht.NewMap[uint64, uint64](machine, mix, 16)
	add := func(existing, update uint64, _ bool) uint64 { return existing + update }
	key := func(rank, round, i int) uint64 { return mix(uint64(rank)<<40 | uint64(round)<<32 | uint64(i)) }
	m.timed("dht.update_ns", 1e9/float64(keysPerRank*P)*spmdSeconds(machine, nil, func(r *pgas.Rank, round int) {
		u := table.NewUpdater(r, add, 256, true)
		for i := 0; i < keysPerRank; i++ {
			u.Update(key(r.ID(), round, i), 1)
		}
		u.Flush()
	}))
	m.timed("dht.frozen_get_ns", 1e9/float64(keysPerRank*P)*spmdSeconds(machine,
		func(r *pgas.Rank) {
			r.Barrier()
			if r.ID() == 0 {
				table.Freeze()
			}
			r.Barrier()
		},
		func(r *pgas.Rank, round int) {
			for i := 0; i < keysPerRank; i++ {
				table.Get(r, key((r.ID()+1)%P, round, i))
			}
		}))

	// dist: route contig-sized items to hashed owners and renumber them.
	type routed struct {
		id  int
		seq []byte
	}
	routedPerRank := perRank(1<<13, P)
	payload := make([]byte, 300)
	m.timed("dist.route_ns_per_item", 1e9/float64(routedPerRank*P)*spmdSeconds(machine, nil, func(r *pgas.Rank, _ int) {
		local := make([]routed, routedPerRank)
		for i := range local {
			local[i] = routed{id: r.ID()*routedPerRank + i, seq: payload}
		}
		set := dist.New(r, local,
			func(it routed) int { return int(mix(uint64(it.id)) % uint64(P)) },
			func(it routed) int { return len(it.seq) + 8 }, dist.Distributed)
		set.Renumber(r, func(int, int) {})
		set.Release(r)
	}))

	// fastx on the workload's own input, or on the job body's reads.
	fastq := filepath.Join(dir, "probe.fastq")
	if len(files) > 0 {
		fastq = files[0]
	} else if err := fastx.WriteReadsFASTQ(fastq, reads); err != nil {
		return err
	}
	info, err := os.Stat(fastq)
	if err != nil {
		return err
	}
	mb := float64(info.Size()) / 1e6
	var parsed []seq.Read
	var ioErr error
	m.timed("fastx.parse_mb_per_s", ratio(mb, secondsPerBatch(func() {
		if parsed, err = fastx.ReadReadsFile(fastq); err != nil {
			ioErr = err
		}
	})))
	rewrite := filepath.Join(dir, "probe.rewrite.fastq")
	m.timed("fastx.write_mb_per_s", ratio(mb, secondsPerBatch(func() {
		if err := fastx.WriteReadsFASTQ(rewrite, parsed); err != nil {
			ioErr = err
		}
	})))
	if ioErr != nil {
		return ioErr
	}

	// checkpoint: the shard codec over the reads (the bulk of every shard).
	if w.resume {
		var encoded []byte
		encS := secondsPerBatch(func() {
			var e checkpoint.Enc
			for _, rd := range reads {
				e.Read(rd)
			}
			encoded = e.Bytes()
		})
		decS := secondsPerBatch(func() {
			d := checkpoint.NewDec(encoded)
			for range reads {
				if _, err := d.Read(); err != nil {
					ioErr = err
				}
			}
		})
		if ioErr != nil {
			return ioErr
		}
		m.timed("checkpoint.encode_mb_per_s", ratio(float64(len(encoded))/1e6, encS))
		m.timed("checkpoint.decode_mb_per_s", ratio(float64(len(encoded))/1e6, decS))
	}

	// serve: decoding and validating one job body.
	if w.serve {
		m.timed("serve.decode_spec_ms", 1e3*secondsPerBatch(func() {
			spec, err := serve.DecodeSpec(jobBody)
			if err == nil {
				err = spec.Validate()
			}
			if err != nil {
				ioErr = err
			}
		}))
		if ioErr != nil {
			return ioErr
		}
	}
	tr.add(parent, 0, "probes", begin, time.Now(), nil)
	return nil
}
