package hashtab

import (
	"encoding/binary"
	"math/rand"
	"slices"
	"testing"

	"mhmgo/internal/seq"
)

func mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// hashModes are the ways the differential test hashes a key. The table must
// be correct under all of them; only its speed may depend on the hash.
var hashModes = []struct {
	name string
	hash func(uint16) uint64
}{
	{"mixed", func(k uint16) uint64 { return mix(uint64(k)) }},
	// Keys that share their low and their top bits, as one dht partition's
	// keys share h % P: here the same h % 16 and the same top three bits.
	{"stripe", func(k uint16) uint64 { return mix(uint64(k))<<7>>3 | 5<<61 | 3 }},
	// Every key has the same hash, hence the same tag and probe start.
	{"constant", func(uint16) uint64 { return 42 }},
	{"seven", func(k uint16) uint64 { return uint64(k % 7) }},
	// Unmixed small integers, including 0, whose remix is the empty marker
	// and is nudged onto the tag of another hash.
	{"identity", func(k uint16) uint64 { return uint64(k) }},
}

// checkInvariants verifies the table's structure from the inside: the entry
// count, the load bound, zeroed empty slots, and that every entry is
// reachable by a probe from its home slot.
func checkInvariants[V comparable](t *testing.T, tab *Table[uint16, V]) {
	t.Helper()
	var zero slot[uint16, V]
	live := 0
	for i := range tab.slots {
		s := tab.slots[i]
		if s.tag == 0 {
			if s != zero {
				t.Fatalf("empty slot %d holds %+v", i, s)
			}
			continue
		}
		live++
		if j, ok := tab.find(s.tag, s.key); !ok || j != i {
			t.Fatalf("entry %d in slot %d: probe ends at %d (found=%v)", s.key, i, j, ok)
		}
	}
	if live != tab.n {
		t.Fatalf("Len() = %d, %d slots occupied", tab.n, live)
	}
	if n := len(tab.slots); n&(n-1) != 0 || tab.n*loadDen > n*loadNum {
		t.Fatalf("%d entries in %d slots", tab.n, n)
	}
}

// runOps drives a Table and a builtin-map oracle through the operations
// encoded in ops (three bytes each: opcode, key high, key low) and fails on
// the first disagreement. It returns the table's final All() sequence.
func runOps(t *testing.T, hash func(uint16) uint64, keyMask uint16, ops []byte) []uint16 {
	t.Helper()
	var tab Table[uint16, int]
	oracle := map[uint16]int{}
	for step := 0; len(ops) >= 3; step, ops = step+1, ops[3:] {
		key := binary.BigEndian.Uint16(ops[1:]) & keyMask
		h := hash(key)
		want, present := oracle[key]
		switch op := ops[0] % 16; op {
		case 0, 1, 2: // insert or overwrite
			tab.Put(h, key, step)
			oracle[key] = step
		case 3, 4, 5: // admit an absent key, edit a present one
			stored := tab.Update(h, key, func(v *int, found bool) bool {
				if found != present || *v != want {
					t.Fatalf("step %d: Update(%d) saw (%d,%v), want (%d,%v)", step, key, *v, found, want, present)
				}
				*v += step + 1
				return true
			})
			if !stored {
				t.Fatalf("step %d: admitted Update(%d) reported not stored", step, key)
			}
			oracle[key] = want + step + 1
		case 6, 7: // decline an absent key (after scribbling), edit a present one
			stored := tab.Update(h, key, func(v *int, found bool) bool {
				if found != present || *v != want {
					t.Fatalf("step %d: Update(%d) saw (%d,%v), want (%d,%v)", step, key, *v, found, want, present)
				}
				*v -= 3
				return false
			})
			if stored != present {
				t.Fatalf("step %d: declined Update(%d) reported stored=%v, present=%v", step, key, stored, present)
			}
			if present {
				oracle[key] = want - 3
			}
		case 8, 9, 10, 11:
			if got := tab.Delete(h, key); got != present {
				t.Fatalf("step %d: Delete(%d) = %v, want %v", step, key, got, present)
			}
			delete(oracle, key)
		case 12, 13, 14:
			if got, ok := tab.Get(h, key); ok != present || got != want {
				t.Fatalf("step %d: Get(%d) = (%d,%v), want (%d,%v)", step, key, got, ok, want, present)
			}
		case 15:
			seen := map[uint16]int{}
			for k, v := range tab.All() {
				if _, dup := seen[k]; dup {
					t.Fatalf("step %d: All yielded %d twice", step, k)
				}
				seen[k] = v
			}
			if len(seen) != len(oracle) {
				t.Fatalf("step %d: All yielded %d entries, want %d", step, len(seen), len(oracle))
			}
			for k, v := range oracle {
				if got, ok := seen[k]; !ok || got != v {
					t.Fatalf("step %d: All yielded (%d,%v) for %d, want %d", step, got, ok, k, v)
				}
			}
			checkInvariants(t, &tab)
		}
		if tab.Len() != len(oracle) {
			t.Fatalf("step %d: Len() = %d, want %d", step, tab.Len(), len(oracle))
		}
	}
	checkInvariants(t, &tab)
	var order []uint16
	for k, v := range tab.All() {
		if oracle[k] != v {
			t.Fatalf("final: key %d = %d, want %d", k, v, oracle[k])
		}
		order = append(order, k)
	}
	if len(order) != len(oracle) {
		t.Fatalf("final: %d entries, want %d", len(order), len(oracle))
	}
	return order
}

// randomOps builds an operation stream in phases — fill, churn, drain,
// refill — so a run grows through several doublings, deletes most of what it
// holds and reinserts the deleted keys.
func randomOps(rng *rand.Rand, n int) []byte {
	ops := make([]byte, 0, 3*n)
	for i := 0; i < n; i++ {
		var op byte
		switch phase := 4 * i / n; {
		case phase == 0 || phase == 3:
			op = byte(rng.Intn(8)) // inserts and updates only
		case phase == 2:
			op = byte(8 + rng.Intn(4)) // deletes only
		default:
			op = byte(rng.Intn(16))
		}
		ops = append(ops, op, byte(rng.Intn(256)), byte(rng.Intn(256)))
	}
	return ops
}

func TestTableMatchesBuiltinMap(t *testing.T) {
	for _, mode := range hashModes {
		t.Run(mode.name, func(t *testing.T) {
			// Colliding modes probe linearly through everything stored, so
			// they get a smaller key space; the others reach 8 -> 8192 slots.
			keyMask, n := uint16(0x0FFF), 40000
			if mode.name == "constant" || mode.name == "seven" {
				keyMask, n = 0x01FF, 8000
			}
			for seed := int64(1); seed <= 3; seed++ {
				ops := randomOps(rand.New(rand.NewSource(seed)), n)
				order := runOps(t, mode.hash, keyMask, ops)
				// Slot order is a function of the operation history alone.
				if again := runOps(t, mode.hash, keyMask, ops); !slices.Equal(order, again) {
					t.Fatalf("seed %d: two runs of one history iterate differently", seed)
				}
			}
		})
	}
}

func TestZeroTableAllocatesOnFirstInsert(t *testing.T) {
	var tab Table[uint16, int]
	if _, ok := tab.Get(1, 1); ok || tab.Delete(1, 1) || tab.Len() != 0 {
		t.Fatal("zero table is not empty")
	}
	for range tab.All() {
		t.Fatal("zero table yielded an entry")
	}
	if tab.Update(1, 1, func(*int, bool) bool { return false }) || tab.slots != nil {
		t.Fatal("a declined update allocated slots")
	}
	tab.Put(1, 1, 10)
	if len(tab.slots) != minSlots {
		t.Fatalf("first insert allocated %d slots, want %d", len(tab.slots), minSlots)
	}
}

func FuzzTableOps(f *testing.F) {
	// Short seeds: the engine minimizes every input that reaches new code,
	// one byte at a time, before it goes on mutating.
	f.Add(byte(0), randomOps(rand.New(rand.NewSource(1)), 40))
	f.Add(byte(2), randomOps(rand.New(rand.NewSource(2)), 40))
	f.Add(byte(4), []byte{0, 0, 0, 0, 0, 1, 8, 0, 0, 15, 0, 0, 14, 0, 0})
	f.Fuzz(func(t *testing.T, mode byte, ops []byte) {
		runOps(t, hashModes[int(mode)%len(hashModes)].hash, 0x03FF, ops)
	})
}

// BenchmarkTableVsBuiltin compares the table with the builtin map on the
// pipeline's hottest instantiation, seq.Kmer -> seq.KmerCount. The table is
// handed the hash, as dht hands it the one that chose the owner; the
// builtin map hashes the 17-byte key itself.
func BenchmarkTableVsBuiltin(b *testing.B) {
	const n = 1 << 16
	rng := rand.New(rand.NewSource(1))
	kmer := func() seq.Kmer { return seq.Kmer{Hi: rng.Uint64() >> 20, Lo: rng.Uint64(), K: 55} }
	present, absent := make([]seq.Kmer, n), make([]seq.Kmer, n)
	hp, ha := make([]uint64, n), make([]uint64, n)
	for i := range present {
		present[i], absent[i] = kmer(), kmer()
		hp[i], ha[i] = present[i].Hash(), absent[i].Hash()
	}
	fillTable := func() *Table[seq.Kmer, seq.KmerCount] {
		tab := new(Table[seq.Kmer, seq.KmerCount])
		for i, km := range present {
			tab.Put(hp[i], km, seq.KmerCount{Kmer: km, Count: 1})
		}
		return tab
	}
	fillMap := func() map[seq.Kmer]seq.KmerCount {
		m := map[seq.Kmer]seq.KmerCount{}
		for _, km := range present {
			m[km] = seq.KmerCount{Kmer: km, Count: 1}
		}
		return m
	}
	var sink uint32

	b.Run("hit/table", func(b *testing.B) {
		tab := fillTable()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			kc, _ := tab.Get(hp[i%n], present[i%n])
			sink += kc.Count
		}
	})
	b.Run("hit/builtin", func(b *testing.B) {
		m := fillMap()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sink += m[present[i%n]].Count
		}
	})
	b.Run("miss/table", func(b *testing.B) {
		tab := fillTable()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			kc, _ := tab.Get(ha[i%n], absent[i%n])
			sink += kc.Count
		}
	})
	b.Run("miss/builtin", func(b *testing.B) {
		m := fillMap()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sink += m[absent[i%n]].Count
		}
	})
	// insert and delete time whole fill / drain cycles of n keys from empty,
	// growth included, and report the cost per key.
	b.Run("insert/table", func(b *testing.B) {
		for i := 0; i < b.N; i += n {
			fillTable()
		}
	})
	b.Run("insert/builtin", func(b *testing.B) {
		for i := 0; i < b.N; i += n {
			fillMap()
		}
	})
	b.Run("delete/table", func(b *testing.B) {
		for i := 0; i < b.N; i += n {
			b.StopTimer()
			tab := fillTable()
			b.StartTimer()
			for j, km := range present {
				tab.Delete(hp[j], km)
			}
		}
	})
	b.Run("delete/builtin", func(b *testing.B) {
		for i := 0; i < b.N; i += n {
			b.StopTimer()
			m := fillMap()
			b.StartTimer()
			for _, km := range present {
				delete(m, km)
			}
		}
	})
	_ = sink
}
