// Package checkpoint implements per-stage checkpoint serialization and the
// content-hashed run manifest for the assembler's checkpoint/restart support
// (the robustness pillar: HipMer/MetaHipMer production runs survive
// multi-hour assemblies by checkpointing between pipeline stages).
//
// The package has three parts:
//
//   - A compact little-endian binary codec: Enc and Dec hold the primitives,
//     and a Codec walks one field list per record type (reads, contigs,
//     alignments, scaffolds, k-mer counts) over either of them, so each
//     list is the format in both directions. Every decode path is
//     bounds-checked and reports an error — corrupted or truncated
//     checkpoint bytes must never panic and never silently resume.
//   - Shard files: one rank-state file per (step, rank) and one read
//     shard per distinct read set, named by its content hash, each written
//     atomically (temp + rename) under a magic header and read back only
//     against the content hash the manifest, or a rank-state shard it
//     commits to, recorded for it.
//   - The manifest: a JSON document whose steps form a Merkle-style hash
//     chain rooted in the content hashes of the run's configuration and
//     input reads, so a resume can refuse to continue from state that was
//     produced by a different run.
package checkpoint

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
)

// Enc is an append-only encoder for the checkpoint wire format. The zero
// value is ready to use. All integers are little-endian; variable-length
// payloads are length-prefixed with an int64.
type Enc struct {
	buf []byte
}

// Bytes returns the encoded buffer.
func (e *Enc) Bytes() []byte { return e.buf }

// U8 appends one byte.
func (e *Enc) U8(v uint8) { e.buf = append(e.buf, v) }

// U32 appends a little-endian uint32.
func (e *Enc) U32(v uint32) { e.buf = binary.LittleEndian.AppendUint32(e.buf, v) }

// U64 appends a little-endian uint64.
func (e *Enc) U64(v uint64) { e.buf = binary.LittleEndian.AppendUint64(e.buf, v) }

// I64 appends a little-endian int64.
func (e *Enc) I64(v int64) { e.U64(uint64(v)) }

// Int appends an int as int64.
func (e *Enc) Int(v int) { e.I64(int64(v)) }

// F64 appends the IEEE-754 bit pattern of a float64, preserving the exact
// bits (checkpointed clocks must restore bit-identically).
func (e *Enc) F64(v float64) { e.U64(math.Float64bits(v)) }

// Bool appends a bool as one byte.
func (e *Enc) Bool(v bool) {
	if v {
		e.U8(1)
	} else {
		e.U8(0)
	}
}

// Blob appends a length-prefixed byte slice.
func (e *Enc) Blob(b []byte) {
	e.Int(len(b))
	e.buf = append(e.buf, b...)
}

// Str appends a length-prefixed string.
func (e *Enc) Str(s string) {
	e.Int(len(s))
	e.buf = append(e.buf, s...)
}

// Dec decodes the checkpoint wire format. It never panics on truncated or
// malformed input: the first failure is latched, and from then on every
// method returns its zero value and consumes nothing, so a record walk runs
// to its end without branching and Err or Done reports what went wrong.
// Length prefixes are validated against the remaining bytes before any
// allocation, so a decoder fed hostile input cannot balloon memory either.
type Dec struct {
	buf []byte
	off int
	err error
}

// NewDec returns a decoder over b.
func NewDec(b []byte) *Dec { return &Dec{buf: b} }

// Remaining returns the number of undecoded bytes.
func (d *Dec) Remaining() int { return len(d.buf) - d.off }

// Done returns the first decode failure, or an error unless the buffer was
// consumed exactly.
func (d *Dec) Done() error {
	if n := d.Remaining(); d.err == nil && n != 0 {
		return fmt.Errorf("checkpoint: %d trailing bytes after decode", n)
	}
	return d.err
}

func (d *Dec) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf(format, args...)
	}
}

// take returns the next n bytes, or nil once the decoder has failed.
func (d *Dec) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || n > d.Remaining() {
		d.fail("checkpoint: truncated input: need %d bytes, have %d", n, d.Remaining())
		return nil
	}
	// The full slice expression caps the result at its own bytes: decoded
	// slices alias the input buffer, and without the cap a later append on
	// one decoded field could silently overwrite its neighbours.
	b := d.buf[d.off : d.off+n : d.off+n]
	d.off += n
	return b
}

// zeros is what a failed decoder's fixed-width reads decode.
var zeros [8]byte

// fixed returns the next n <= 8 bytes, or zeros once the decoder has failed.
func (d *Dec) fixed(n int) []byte {
	if b := d.take(n); b != nil {
		return b
	}
	return zeros[:n]
}

// U8 decodes one byte.
func (d *Dec) U8() uint8 { return d.fixed(1)[0] }

// U32 decodes a little-endian uint32.
func (d *Dec) U32() uint32 { return binary.LittleEndian.Uint32(d.fixed(4)) }

// U64 decodes a little-endian uint64.
func (d *Dec) U64() uint64 { return binary.LittleEndian.Uint64(d.fixed(8)) }

// I64 decodes a little-endian int64.
func (d *Dec) I64() int64 { return int64(d.U64()) }

// Int decodes an int64 into an int.
func (d *Dec) Int() int {
	v := d.I64()
	if int64(int(v)) != v {
		d.fail("checkpoint: integer %d overflows int", v)
		return 0
	}
	return int(v)
}

// F64 decodes a float64 from its bit pattern.
func (d *Dec) F64() float64 { return math.Float64frombits(d.U64()) }

// Bool decodes a bool; any byte other than 0 or 1 is an error.
func (d *Dec) Bool() bool {
	v := d.U8()
	if v > 1 {
		d.fail("checkpoint: invalid bool byte %#x", v)
	}
	return v == 1
}

// Blob decodes a length-prefixed byte slice. The returned slice aliases the
// decoder's buffer.
func (d *Dec) Blob() []byte { return d.take(d.Int()) }

// Str decodes a length-prefixed string.
func (d *Dec) Str() string { return string(d.Blob()) }

// Count decodes an element count that precedes a homogeneous sequence whose
// elements occupy at least minBytes bytes each. Validating the count against
// the remaining input caps the slice a caller may pre-allocate at the size
// of the data actually present, so a corrupted length prefix cannot request
// an enormous allocation. A failed decoder counts 0.
func (d *Dec) Count(minBytes int) int {
	n := d.Int()
	if n < 0 || n > d.Remaining()/max(minBytes, 1) {
		d.fail("checkpoint: implausible element count %d (%d bytes remaining)", n, d.Remaining())
	}
	if d.err != nil {
		return 0
	}
	return n
}

// Codec walks a record's fields in wire order over either an Enc or a Dec:
// each method encodes the field it points at or decodes into it. A record's
// field list — one function of a Codec and a pointer to the record — is
// therefore its format in both directions, and the two cannot drift apart.
type Codec struct {
	enc *Enc
	dec *Dec
}

// Codec returns a walk that appends to e.
func (e *Enc) Codec() *Codec { return &Codec{enc: e} }

// Codec returns a walk that decodes from d; d.Err or d.Done reports whether
// the walked records are valid.
func (d *Dec) Codec() *Codec { return &Codec{dec: d} }

// field walks one primitive: put is its Enc method, get its Dec method.
func field[T any](c *Codec, v *T, put func(*Enc, T), get func(*Dec) T) {
	if c.dec != nil {
		*v = get(c.dec)
	} else {
		put(c.enc, *v)
	}
}

// U8, U32, U64, Int, F64, Blob and Str walk one field in the encoding of the
// Enc and Dec method of the same name. A decoded Blob aliases the input.
func (c *Codec) U8(v *uint8)    { field(c, v, (*Enc).U8, (*Dec).U8) }
func (c *Codec) U32(v *uint32)  { field(c, v, (*Enc).U32, (*Dec).U32) }
func (c *Codec) U64(v *uint64)  { field(c, v, (*Enc).U64, (*Dec).U64) }
func (c *Codec) Int(v *int)     { field(c, v, (*Enc).Int, (*Dec).Int) }
func (c *Codec) F64(v *float64) { field(c, v, (*Enc).F64, (*Dec).F64) }
func (c *Codec) Blob(v *[]byte) { field(c, v, (*Enc).Blob, (*Dec).Blob) }
func (c *Codec) Str(v *string)  { field(c, v, (*Enc).Str, (*Dec).Str) }

// Bool walks a bool and returns its value, so a list can guard an optional
// section with it; on a failed decoder that is false.
func (c *Codec) Bool(v *bool) bool {
	field(c, v, (*Enc).Bool, (*Dec).Bool)
	return *v
}

// Check runs a structural validation of what the walk has decoded so far. It
// does nothing while encoding or once the decoder has failed.
func (c *Codec) Check(valid func() error) {
	if c.dec != nil && c.dec.err == nil {
		if err := valid(); err != nil {
			c.dec.err = fmt.Errorf("checkpoint: %w", err)
		}
	}
}

// Slice walks a count followed by that many elements. Decoding bounds the
// count by the remaining bytes over the smallest element the list can
// produce — the encoding of T's zero value — before allocating.
func Slice[T any](c *Codec, xs *[]T, fields func(*Codec, *T)) {
	if c.dec == nil {
		c.enc.Int(len(*xs))
	} else if n := c.dec.Count(encodedSize(fields)); n > 0 {
		*xs = make([]T, n)
	} else {
		*xs = nil
	}
	for i := range *xs {
		fields(c, &(*xs)[i])
	}
}

// encodedSize returns the encoded size of T's zero value: no field of a
// fixed width is narrower, and no blob, string, slice or guarded section
// shorter, in any other value.
func encodedSize[T any](fields func(*Codec, *T)) int {
	var e Enc
	fields(e.Codec(), new(T))
	return len(e.buf)
}

// HashSlice returns the hex SHA-256 of Slice's encoding of xs, streamed one
// element at a time instead of materialized.
func HashSlice[T any](xs []T, fields func(*Codec, *T)) string {
	var e Enc
	c, h := e.Codec(), sha256.New()
	e.Int(len(xs))
	for i := range xs {
		fields(c, &xs[i])
		h.Write(e.buf)
		e.buf = e.buf[:0]
	}
	h.Write(e.buf)
	return hex.EncodeToString(h.Sum(nil))
}
