package bloom

import (
	"math/rand"
	"testing"
)

// mightContain is the read-only probe the false-positive measurement needs:
// TestAndAdd, the filter's one operation, would insert every probed key.
func mightContain(f *Filter, h uint64) bool {
	idx := f.indices(h)
	for _, i := range idx[:f.hashes] {
		if f.bits[i/64]&(1<<(i%64)) == 0 {
			return false
		}
	}
	return true
}

func TestFilterNoFalseNegatives(t *testing.T) {
	f := NewWithEstimates(10000, 0.01)
	r := rand.New(rand.NewSource(1))
	keys := make([]uint64, 5000)
	for i := range keys {
		keys[i] = r.Uint64()
		f.TestAndAdd(keys[i])
	}
	for i, k := range keys {
		if !f.TestAndAdd(k) {
			t.Fatalf("false negative for key %d", i)
		}
	}
}

func TestFilterFalsePositiveRate(t *testing.T) {
	f := NewWithEstimates(10000, 0.01)
	r := rand.New(rand.NewSource(2))
	inserted := map[uint64]bool{}
	for i := 0; i < 10000; i++ {
		k := r.Uint64()
		inserted[k] = true
		f.TestAndAdd(k)
	}
	fp := 0
	const probes = 20000
	for i := 0; i < probes; i++ {
		k := r.Uint64()
		if inserted[k] {
			continue
		}
		if mightContain(f, k) {
			fp++
		}
	}
	rate := float64(fp) / probes
	if rate > 0.05 {
		t.Errorf("observed false positive rate %v, expected around 0.01", rate)
	}
}

func TestTestAndAdd(t *testing.T) {
	f := NewWithEstimates(1000, 0.01)
	if f.TestAndAdd(42) {
		t.Error("first TestAndAdd should report absent")
	}
	if !f.TestAndAdd(42) {
		t.Error("second TestAndAdd should report present")
	}
}

func TestNewClampsParameters(t *testing.T) {
	f := New(1, 0)
	if f.nbits < 64 || f.hashes < 1 {
		t.Errorf("parameters not clamped: %d bits, %d hashes", f.nbits, f.hashes)
	}
	f = New(1024, 100)
	if f.hashes > 16 {
		t.Errorf("hash count not clamped: %d", f.hashes)
	}
	f = NewWithEstimates(0, -1)
	if f.TestAndAdd(7) || !f.TestAndAdd(7) {
		t.Error("degenerate filter should still work")
	}
}

func BenchmarkFilterTestAndAdd(b *testing.B) {
	f := NewWithEstimates(uint64(b.N)+1, 0.01)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.TestAndAdd(uint64(i) * 0x9e3779b97f4a7c15)
	}
}
