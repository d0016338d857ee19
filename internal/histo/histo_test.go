package histo

import (
	"math/rand"
	"reflect"
	"testing"
)

func strHash(s string) uint64 {
	var h uint64 = 14695981039346656037
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

func intHash(k int) uint64 { return uint64(k) * 0x9E3779B97F4A7C15 }

// candidate returns key's estimated count in the summary.
func candidate[K comparable](hh *HeavyHitters[K], key K) (int64, bool) {
	for _, it := range hh.Items() {
		if it.Key == key {
			return it.Count, true
		}
	}
	return 0, false
}

func TestHeavyHittersFindsFrequentKeys(t *testing.T) {
	hh := NewHeavyHitters(10, strHash)
	r := rand.New(rand.NewSource(5))
	// One key takes ~30% of a large stream, everything else is noise.
	const n = 100000
	for i := 0; i < n; i++ {
		if r.Float64() < 0.3 {
			hh.Add("heavy", 1)
		} else {
			hh.Add(randKey(r), 1)
		}
	}
	c, ok := candidate(hh, "heavy")
	if !ok {
		t.Fatal("heavy key not retained as candidate")
	}
	if c < n/10 {
		t.Errorf("heavy key estimate %d is too low", c)
	}
	if top := hh.Items(); len(top) == 0 || top[0].Key != "heavy" {
		t.Errorf("Items() = %+v, want the heavy key first", top)
	}
}

func randKey(r *rand.Rand) string {
	b := make([]byte, 8)
	for i := range b {
		b[i] = byte('a' + r.Intn(26))
	}
	return string(b)
}

func TestHeavyHittersGuarantee(t *testing.T) {
	// Misra-Gries guarantee: any key with frequency > total/capacity must be
	// among the candidates.
	hh := NewHeavyHitters(20, intHash)
	const total = 20000
	// Keys 0..4 each take 10% of the stream; the rest is spread thin.
	for i := 0; i < total; i++ {
		switch {
		case i%10 < 5:
			hh.Add(i%10, 1)
		default:
			hh.Add(100+i, 1)
		}
	}
	for k := 0; k < 5; k++ {
		if _, ok := candidate(hh, k); !ok {
			t.Errorf("frequent key %d missing from candidates", k)
		}
	}
}

func TestHeavyHittersWeightedAndEdgeCases(t *testing.T) {
	hh := NewHeavyHitters(2, strHash)
	hh.Add("a", 100)
	hh.Add("b", 10)
	hh.Add("c", 1) // forces an eviction pass
	if _, ok := candidate(hh, "a"); !ok {
		t.Error("dominant key evicted")
	}
	before := hh.Items()
	hh.Add("zero", 0)
	hh.Add("neg", -5)
	if after := hh.Items(); !reflect.DeepEqual(before, after) {
		t.Errorf("non-positive weights changed the summary: %v -> %v", before, after)
	}
	empty := NewHeavyHitters(0, strHash)
	empty.Add("x", 1)
	if c, ok := candidate(empty, "x"); !ok || c != 1 {
		t.Error("capacity clamp failed")
	}
}

// mapSketch is the summary as it was written over a builtin map; the table-
// backed one must hold exactly the same candidates with the same counts.
type mapSketch struct {
	capacity int
	counts   map[int]int64
}

func (h *mapSketch) add(key int, n int64) {
	if c, ok := h.counts[key]; ok {
		h.counts[key] = c + n
		return
	}
	if len(h.counts) < h.capacity {
		h.counts[key] = n
		return
	}
	dec := n
	for _, c := range h.counts {
		dec = min(dec, c)
	}
	for k, c := range h.counts {
		if c <= dec {
			delete(h.counts, k)
		} else {
			h.counts[k] = c - dec
		}
	}
	if rem := n - dec; rem > 0 && len(h.counts) < h.capacity {
		h.counts[key] = rem
	}
}

func TestHeavyHittersMatchesMapSketch(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, capacity := range []int{1, 3, 16, 64} {
		hh := NewHeavyHitters(capacity, intHash)
		ref := &mapSketch{capacity: capacity, counts: map[int]int64{}}
		for i := 0; i < 20000; i++ {
			key := rng.Intn(8)
			if rng.Intn(3) > 0 {
				key = rng.Intn(5000)
			}
			n := int64(1)
			if rng.Intn(10) == 0 {
				n = int64(1 + rng.Intn(40))
			}
			hh.Add(key, n)
			ref.add(key, n)
		}
		got := map[int]int64{}
		for _, it := range hh.Items() {
			got[it.Key] = it.Count
		}
		if !reflect.DeepEqual(got, ref.counts) {
			t.Errorf("capacity %d: candidates %v, want %v", capacity, got, ref.counts)
		}
	}
}

// TestHeavyHittersItemsDeterministic pins the tie order: a stream that leaves
// many equal-count candidates must list them identically from two summaries
// (over a builtin map the order changed from run to run; see -count=20 in CI).
func TestHeavyHittersItemsDeterministic(t *testing.T) {
	feed := func() []Item[int] {
		hh := NewHeavyHitters(64, intHash)
		rng := rand.New(rand.NewSource(3))
		for i := 0; i < 5000; i++ {
			hh.Add(rng.Intn(400), 1)
		}
		return hh.Items()
	}
	a, b := feed(), feed()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same stream, different Items():\n%v\n%v", a, b)
	}
	ties := 0
	for i := 1; i < len(a); i++ {
		if a[i].Count > a[i-1].Count {
			t.Fatalf("Items() not sorted by descending count: %v", a)
		}
		if a[i].Count == a[i-1].Count {
			ties++
		}
	}
	if ties == 0 {
		t.Fatal("stream produced no equal-count candidates; the test checks nothing")
	}
}
