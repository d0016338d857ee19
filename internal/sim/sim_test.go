package sim

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"mhmgo/internal/seq"
)

func TestGenerateCommunityDeterministic(t *testing.T) {
	cfg := DefaultCommunityConfig()
	a := GenerateCommunity(cfg)
	b := GenerateCommunity(cfg)
	if len(a.Genomes) != len(b.Genomes) {
		t.Fatal("nondeterministic genome count")
	}
	for i := range a.Genomes {
		if string(a.Genomes[i].Seq) != string(b.Genomes[i].Seq) {
			t.Fatalf("genome %d differs between identical seeds", i)
		}
	}
	cfg.Seed = 99
	c := GenerateCommunity(cfg)
	if string(a.Genomes[0].Seq) == string(c.Genomes[0].Seq) {
		t.Error("different seeds should produce different genomes")
	}
}

func TestCommunityStructure(t *testing.T) {
	cfg := DefaultCommunityConfig()
	cfg.NumGenomes = 10
	cfg.StrainFraction = 0.2
	c := GenerateCommunity(cfg)
	if len(c.Genomes) != 10 {
		t.Fatalf("got %d genomes, want 10", len(c.Genomes))
	}
	var abundanceSum float64
	strains := 0
	for _, g := range c.Genomes {
		if len(g.Seq) == 0 {
			t.Errorf("genome %s is empty", g.Name)
		}
		if len(bytes.Trim(g.Seq, "ACGT")) != 0 {
			t.Errorf("genome %s has ambiguous bases", g.Name)
		}
		abundanceSum += g.Abundance
		if g.StrainOf != "" {
			strains++
			parent := genomeByName(c, g.StrainOf)
			if parent == nil {
				t.Errorf("strain %s has unknown parent %s", g.Name, g.StrainOf)
				continue
			}
			if len(parent.Seq) != len(g.Seq) {
				t.Errorf("strain %s length differs from parent", g.Name)
			}
			diff := 0
			for i := range g.Seq {
				if g.Seq[i] != parent.Seq[i] {
					diff++
				}
			}
			rate := float64(diff) / float64(len(g.Seq))
			if rate == 0 || rate > 0.05 {
				t.Errorf("strain %s SNP rate %v out of expected range", g.Name, rate)
			}
		}
	}
	if math.Abs(abundanceSum-1) > 1e-9 {
		t.Errorf("abundances sum to %v, want 1", abundanceSum)
	}
	if strains == 0 {
		t.Error("expected at least one strain genome")
	}
	if c.TotalBases() <= 0 {
		t.Error("TotalBases should be positive")
	}
}

func TestRRNAMarkerPlanted(t *testing.T) {
	cfg := DefaultCommunityConfig()
	cfg.NumGenomes = 6
	cfg.StrainFraction = 0
	cfg.RRNADivergence = 0 // identical markers, easy to verify
	c := GenerateCommunity(cfg)
	marker := string(c.RRNAMarker)
	for _, g := range c.Genomes {
		if len(g.RRNAPositions) != cfg.RRNACopies {
			t.Errorf("genome %s has %d marker positions, want %d", g.Name, len(g.RRNAPositions), cfg.RRNACopies)
			continue
		}
		pos := g.RRNAPositions[0]
		got := string(g.Seq[pos : pos+len(marker)])
		if got != marker {
			t.Errorf("genome %s: marker not found at recorded position", g.Name)
		}
		if !strings.Contains(string(g.Seq), marker) {
			t.Errorf("genome %s does not contain the marker", g.Name)
		}
	}
}

func TestSimulateReadsBasics(t *testing.T) {
	cfg := DefaultCommunityConfig()
	cfg.NumGenomes = 4
	cfg.MeanGenomeLen = 8000
	cfg.StrainFraction = 0
	c := GenerateCommunity(cfg)
	rc := DefaultReadConfig()
	rc.Coverage = 10
	reads := SimulateReads(c, rc)
	if len(reads) == 0 {
		t.Fatal("no reads simulated")
	}
	if len(reads)%2 != 0 {
		t.Fatal("reads must come in pairs")
	}
	// Coverage sanity: total read bases should be within 2x of the target.
	totalBases := 0
	for _, r := range reads {
		if len(r.Seq) != rc.ReadLen {
			t.Fatalf("read length %d, want %d", len(r.Seq), rc.ReadLen)
		}
		if len(r.Qual) != len(r.Seq) {
			t.Fatalf("quality length mismatch")
		}
		if err := r.Validate(); err != nil {
			t.Fatalf("invalid read: %v", err)
		}
		totalBases += len(r.Seq)
	}
	target := rc.Coverage * float64(c.TotalBases())
	if float64(totalBases) < target/2 || float64(totalBases) > target*2 {
		t.Errorf("total read bases %d far from target %v", totalBases, target)
	}
	// Pair IDs must share a prefix and end in /1 and /2.
	for i := 0; i+1 < len(reads); i += 2 {
		id1, id2 := reads[i].ID, reads[i+1].ID
		if !strings.HasSuffix(id1, "/1") || !strings.HasSuffix(id2, "/2") {
			t.Fatalf("pair suffixes wrong: %q %q", id1, id2)
		}
		if strings.TrimSuffix(id1, "/1") != strings.TrimSuffix(id2, "/2") {
			t.Fatalf("pair IDs do not match: %q %q", id1, id2)
		}
	}
	if genomeByName(c, sourceGenome(reads[0].ID)) == nil {
		t.Errorf("read ID %q does not name its source genome", reads[0].ID)
	}
}

func TestSimulateReadsErrorRate(t *testing.T) {
	cfg := DefaultCommunityConfig()
	cfg.NumGenomes = 2
	cfg.MeanGenomeLen = 10000
	cfg.StrainFraction = 0
	c := GenerateCommunity(cfg)

	perfect := SimulateReads(c, ReadConfig{ReadLen: 100, InsertSize: 300, ErrorRate: 0, Coverage: 5, Seed: 3})
	noisy := SimulateReads(c, ReadConfig{ReadLen: 100, InsertSize: 300, ErrorRate: 0.05, Coverage: 5, Seed: 3})

	mismatchFraction := func(reads []seq.Read) float64 {
		mismatches, total := 0, 0
		for _, r := range reads {
			if !strings.HasSuffix(r.ID, "/1") {
				continue // only forward reads align trivially to the reference
			}
			g := genomeByName(c, sourceGenome(r.ID))
			var start int
			if _, err := parseStart(r.ID, &start); err != nil {
				t.Fatalf("cannot parse %q: %v", r.ID, err)
			}
			ref := g.Seq[start : start+len(r.Seq)]
			for i := range r.Seq {
				if r.Seq[i] != ref[i] {
					mismatches++
				}
				total++
			}
		}
		return float64(mismatches) / float64(total)
	}
	if f := mismatchFraction(perfect); f != 0 {
		t.Errorf("error-free reads have mismatch fraction %v", f)
	}
	f := mismatchFraction(noisy)
	if f < 0.02 || f > 0.1 {
		t.Errorf("noisy reads mismatch fraction %v, want around 0.05", f)
	}
}

// genomeByName returns the community's genome with the given name, or nil.
func genomeByName(c *Community, name string) *Genome {
	for i := range c.Genomes {
		if c.Genomes[i].Name == name {
			return &c.Genomes[i]
		}
	}
	return nil
}

// sourceGenome returns the genome name a simulated read ID starts with
// ("genome:start:pair/1"), or "" for an ID without a colon.
func sourceGenome(readID string) string {
	name, _, ok := strings.Cut(readID, ":")
	if !ok {
		return ""
	}
	return name
}

// parseStart extracts the fragment start coordinate from a simulated read ID
// of the form genome:start:pair/1.
func parseStart(id string, out *int) (int, error) {
	parts := strings.Split(id, ":")
	if len(parts) < 3 {
		return 0, errFormat
	}
	n := 0
	for _, ch := range parts[1] {
		if ch < '0' || ch > '9' {
			return 0, errFormat
		}
		n = n*10 + int(ch-'0')
	}
	*out = n
	return n, nil
}

var errFormat = &formatError{}

type formatError struct{}

func (*formatError) Error() string { return "bad simulated read id" }

func TestSimulateReadsTotalPairsOverride(t *testing.T) {
	cfg := DefaultCommunityConfig()
	cfg.NumGenomes = 3
	cfg.StrainFraction = 0
	c := GenerateCommunity(cfg)
	rc := DefaultReadConfig()
	rc.TotalPairs = 500
	reads := SimulateReads(c, rc)
	pairs := len(reads) / 2
	if pairs < 350 || pairs > 650 {
		t.Errorf("TotalPairs=500 produced %d pairs", pairs)
	}
}

func TestWetlandsLikePreset(t *testing.T) {
	c := WetlandsLikeCommunity(48, 0.5, 11)
	if len(c.Genomes) != 48 {
		t.Fatalf("got %d genomes", len(c.Genomes))
	}
	c2 := WetlandsLikeCommunity(0, 0, 11)
	if len(c2.Genomes) != 96 {
		t.Errorf("defaults should give 96 genomes, got %d", len(c2.Genomes))
	}
}

func TestWeakScalingSeries(t *testing.T) {
	series := WeakScalingSeries(32, 1000)
	if len(series) != 4 {
		t.Fatalf("series length %d", len(series))
	}
	wantNodes := []int{4, 8, 16, 32}
	wantTaxa := []int{5, 10, 20, 40}
	for i, p := range series {
		if p.Nodes != wantNodes[i] || p.Taxa != wantTaxa[i] {
			t.Errorf("point %d = %+v", i, p)
		}
		if p.ReadPairs != p.Taxa*1000 {
			t.Errorf("point %d read pairs = %d", i, p.ReadPairs)
		}
	}
	// Degenerate arguments fall back to defaults without panicking.
	if s := WeakScalingSeries(0, 0); len(s) != 4 || s[0].Nodes < 1 {
		t.Errorf("default series wrong: %+v", s)
	}
}

func TestNormalizedMakesClampExplicit(t *testing.T) {
	// The insert-size clamp (a fragment cannot be shorter than its two
	// reads) must be visible in the normalized config, not applied silently.
	cfg := ReadConfig{ReadLen: 200, InsertSize: 250, Coverage: 5}
	norm := cfg.Normalized()
	if norm.InsertSize != 400 {
		t.Errorf("InsertSize = %d after Normalized, want 400 (2*ReadLen)", norm.InsertSize)
	}
	// Libraries get the same clamp, and shares normalize to sum to 1.
	cfg = ReadConfig{
		ReadLen:  150,
		Coverage: 5,
		Libraries: []LibraryConfig{
			{InsertSize: 200, CoverageShare: 3},
			{InsertSize: 1500, CoverageShare: 1},
		},
	}
	norm = cfg.Normalized()
	if norm.Libraries[0].InsertSize != 300 {
		t.Errorf("library 0 InsertSize = %d, want 300 (2*ReadLen)", norm.Libraries[0].InsertSize)
	}
	if norm.Libraries[1].InsertSize != 1500 {
		t.Errorf("library 1 InsertSize = %d, want 1500 (unclamped)", norm.Libraries[1].InsertSize)
	}
	if got := norm.Libraries[0].CoverageShare; got != 0.75 {
		t.Errorf("library 0 share = %v, want 0.75", got)
	}
	if norm.Libraries[0].Name != "lib0" || norm.Libraries[1].Name != "lib1" {
		t.Errorf("library names = %q, %q", norm.Libraries[0].Name, norm.Libraries[1].Name)
	}
	// All-zero shares become an even split.
	cfg.Libraries[0].CoverageShare, cfg.Libraries[1].CoverageShare = 0, 0
	norm = cfg.Normalized()
	if norm.Libraries[0].CoverageShare != 0.5 || norm.Libraries[1].CoverageShare != 0.5 {
		t.Errorf("zero shares should split evenly: %+v", norm.Libraries)
	}
	// An unset share among set ones claims the remainder — it must never
	// collapse to a zero-read library.
	cfg.Libraries[0].CoverageShare, cfg.Libraries[1].CoverageShare = 0.75, 0
	norm = cfg.Normalized()
	if got := norm.Libraries[1].CoverageShare; math.Abs(got-0.25) > 1e-12 {
		t.Errorf("unset share should claim the 0.25 remainder, got %v", got)
	}
	// Even when the set shares already claim everything, an unset library
	// still receives a nonzero (mean-set) share.
	cfg.Libraries[0].CoverageShare, cfg.Libraries[1].CoverageShare = 2, 0
	norm = cfg.Normalized()
	if got := norm.Libraries[1].CoverageShare; got != 0.5 {
		t.Errorf("unset share next to an over-claiming one should get the mean set share (0.5 after normalization), got %v", got)
	}
}

func TestSimulateMultiLibraryReads(t *testing.T) {
	cfg := DefaultCommunityConfig()
	cfg.NumGenomes = 3
	cfg.MeanGenomeLen = 9000
	cfg.StrainFraction = 0
	c := GenerateCommunity(cfg)
	reads := SimulateReads(c, ReadConfig{
		ReadLen:   80,
		ErrorRate: 0.005,
		Coverage:  10,
		Seed:      9,
		Libraries: []LibraryConfig{
			{Name: "pe300", InsertSize: 300, InsertStd: 25, CoverageShare: 0.7},
			{Name: "mp1500", InsertSize: 1500, InsertStd: 120, CoverageShare: 0.3},
		},
	})
	if len(reads) == 0 || len(reads)%2 != 0 {
		t.Fatalf("multi-library simulation produced %d reads", len(reads))
	}
	// Pairing is positional: mates share a library and an ID stem.
	counts := map[uint8]int{}
	ids := map[string]bool{}
	for i := 0; i < len(reads); i += 2 {
		a, b := reads[i], reads[i+1]
		if a.LibID != b.LibID {
			t.Fatalf("pair %d spans libraries %d and %d", i/2, a.LibID, b.LibID)
		}
		if a.ID[:len(a.ID)-2] != b.ID[:len(b.ID)-2] {
			t.Fatalf("pair %d has mismatched IDs %q, %q", i/2, a.ID, b.ID)
		}
		if ids[a.ID] || ids[b.ID] {
			t.Fatalf("duplicate read ID in pair %d (%q)", i/2, a.ID)
		}
		ids[a.ID], ids[b.ID] = true, true
		counts[a.LibID] += 2
	}
	if len(counts) != 2 {
		t.Fatalf("expected reads from 2 libraries, got %v", counts)
	}
	// The coverage budget should split roughly by share (same read length,
	// so read counts follow the shares).
	frac := float64(counts[0]) / float64(len(reads))
	if frac < 0.6 || frac > 0.8 {
		t.Errorf("library 0 holds %.2f of the reads, want ~0.7", frac)
	}
	// Long-insert pairs really span their configured distance: simulate
	// error-free and verify, per library, that each mate pair brackets a
	// fragment of the configured length (±4 sigma) on its source genome —
	// the failure mode this pins is one library's geometry being applied
	// to another's fragments.
	libs := []LibraryConfig{
		{Name: "pe300", InsertSize: 300, InsertStd: 20, CoverageShare: 0.5},
		{Name: "mp1500", InsertSize: 1500, InsertStd: 100, CoverageShare: 0.5},
	}
	perfect := SimulateReads(c, ReadConfig{
		ReadLen: 60, ErrorRate: 0, Coverage: 4, Seed: 11, Libraries: libs,
	})
	placed, misplaced := map[uint8]int{}, map[uint8]int{}
	for i := 0; i+1 < len(perfect); i += 2 {
		a, b := perfect[i], perfect[i+1]
		g := genomeByName(c, sourceGenome(a.ID))
		if g == nil {
			t.Fatalf("read ID %q does not trace to a genome", a.ID)
		}
		// IDs encode "genome:start:pair/1"; recover the fragment start.
		fields := strings.Split(a.ID, ":")
		start := 0
		for _, ch := range fields[1] {
			start = start*10 + int(ch-'0')
		}
		if string(g.Seq[start:start+len(a.Seq)]) != string(a.Seq) {
			t.Fatalf("pair %d: forward read is not at its recorded start %d", i/2, start)
		}
		lib := libs[a.LibID]
		rcb := seq.ReverseComplement(b.Seq)
		found := false
		for frag := lib.InsertSize - 4*lib.InsertStd; frag <= lib.InsertSize+4*lib.InsertStd; frag++ {
			if frag < 2*len(a.Seq) || start+frag > len(g.Seq) {
				continue
			}
			if string(g.Seq[start+frag-len(b.Seq):start+frag]) == string(rcb) {
				found = true
				break
			}
		}
		if found {
			placed[a.LibID]++
		} else {
			misplaced[a.LibID]++
		}
	}
	for libID, lib := range libs {
		ok, bad := placed[uint8(libID)], misplaced[uint8(libID)]
		if ok == 0 {
			t.Fatalf("library %s produced no verifiable pairs", lib.Name)
		}
		// A small tail of fragments is clamped at genome/read-length
		// boundaries; the overwhelming majority must sit in the library's
		// own insert window.
		if frac := float64(ok) / float64(ok+bad); frac < 0.95 {
			t.Errorf("library %s: only %.2f of pairs span insert %d±4*%d",
				lib.Name, frac, lib.InsertSize, lib.InsertStd)
		}
	}
}
