package kmeranalysis

import (
	"math/rand"
	"testing"
)

// encodeSupermer writes what a supermer's wire size charges for: the length
// byte, two bits per base, then one usable bit per base.
func encodeSupermer(sm *supermer) []byte {
	n := int(sm.n)
	out := make([]byte, 1+(2*n+7)/8, sm.wireSize())
	out[0] = sm.n
	for i := 0; i < n; i++ {
		out[1+i/4] |= sm.code(i) << (2 * (i % 4))
	}
	usable := make([]byte, (n+7)/8)
	for i := 0; i < n; i++ {
		if sm.usableAt(i) {
			usable[i/8] |= 1 << (i % 8)
		}
	}
	return append(out, usable...)
}

// decodeSupermer inverts encodeSupermer.
func decodeSupermer(b []byte) supermer {
	var sm supermer
	sm.n = b[0]
	n := int(sm.n)
	codes, usable := b[1:1+(2*n+7)/8], b[1+(2*n+7)/8:]
	for i := 0; i < n; i++ {
		sm.codes[i>>5] |= uint64(codes[i/4]>>(2*(i%4))&3) << (2 * uint(i&31))
		if usable[i/8]>>(i%8)&1 != 0 {
			sm.usable[i>>6] |= 1 << uint(i&63)
		}
	}
	return sm
}

// TestWireSizes pins the supermer wire size: wireSize is exactly the bytes
// of an encoding that carries everything the owner decodes, and every
// supermer of random reads survives the round trip (its routing-only
// minimizer aside).
func TestWireSizes(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	var codes []byte
	seen := 0
	for trial := 0; trial < 300; trial++ {
		k := []int{5, 21, 33, 63}[trial%4]
		read := randRead(r, 20+r.Intn(300), trial%2 == 0)
		codes = cutSupermers(codes, read, k, func(sm supermer) {
			seen++
			b := encodeSupermer(&sm)
			if len(b) != sm.wireSize() {
				t.Fatalf("encoding is %d bytes, wireSize %d", len(b), sm.wireSize())
			}
			got := decodeSupermer(b)
			got.minimizer = sm.minimizer
			if got != sm {
				t.Fatalf("k=%d: round trip changed the supermer:\n got %+v\nwant %+v", k, got, sm)
			}
		})
	}
	if seen == 0 {
		t.Fatal("no supermers cut")
	}
}
