// Package ghash implements the Carter–Wegman universal hash over
// GF(2^128) that GCM calls GHASH — the construction that makes per-node
// authentication cheap enough to sit on a cache miss path. A hardware
// GHASH unit is one 128-bit carryless multiplier plus an accumulator
// (a few tens of kilogates), an order of magnitude smaller than a
// SHA-256 datapath, which is why the AEGIS-direction integrity trees
// tag every tree node with a keyed universal hash instead of a full
// cryptographic MAC.
//
// The implementation is a byte-wide table method. Key expansion builds
// the 16 multiples of H for one hex digit, then folds pairs of them into
// a 256-entry byte table (4 KiB per key): byteTable[b] is b·H for every
// byte b. The per-block work is 16 steps, each one byte-table lookup, an
// 8-bit shift and one lookup in a shared 256-entry reduction table. This
// halves the steps of the classic 4-bit window (32 per block).
// Everything is fixed-size value state, so hashing a line performs zero
// heap allocations — the property the simulator's 0 allocs/ref hot path
// requires.
package ghash

import "encoding/binary"

// KeySize is the GHASH key length: one 128-bit field element H.
const KeySize = 16

// TagBytes is the truncated authenticator the memory-authentication
// engines store per node (64-bit tags, the common hardware width).
const TagBytes = 8

// Tag is a truncated GHASH authenticator.
type Tag = [TagBytes]byte

// fieldElement is a GF(2^128) element in GCM's reflected bit order:
// low holds the first 8 bytes of the serialized element, high the rest.
type fieldElement struct {
	low, high uint64
}

// Key is an expanded GHASH key: the per-byte multiple table of H.
type Key struct {
	byteTable [256]fieldElement
}

// reductionTable folds the 8 bits shifted out of a field element back
// in, premultiplied by the reduction polynomial x^128 + x^7 + x^2 + x + 1.
// Bit i of the index is the coefficient of x^(127-i) before the shift,
// x^(135-i) after it, which reduces to R·x^(7-i) with R = 0xe1<<56 in
// the reflected representation.
var reductionTable = func() (t [256]uint64) {
	for b := range t {
		for i := 0; i < 8; i++ {
			if b&(1<<i) != 0 {
				t[b] ^= 0xe100000000000000 >> (7 - i)
			}
		}
	}
	return t
}()

// reverseBits reverses a 4-bit index; the digit product table is
// stored in reversed order so a field element's low digit indexes it
// directly.
func reverseBits(i int) int {
	i = i<<2&0xc | i>>2&0x3
	i = i<<1&0xa | i>>1&0x5
	return i
}

// add is addition in GF(2^128): XOR.
func add(x, y fieldElement) fieldElement {
	return fieldElement{x.low ^ y.low, x.high ^ y.high}
}

// double multiplies by x in the reflected representation (the serialized
// msb is the polynomial's constant term, so doubling is a right shift
// with conditional reduction).
func double(x fieldElement) fieldElement {
	msbSet := x.high&1 == 1
	var d fieldElement
	d.high = x.high>>1 | x.low<<63
	d.low = x.low >> 1
	if msbSet {
		d.low ^= 0xe100000000000000
	}
	return d
}

// NewKey expands the 16-byte hash key H.
func NewKey(h []byte) *Key {
	if len(h) != KeySize {
		panic("ghash: key must be exactly 16 bytes")
	}
	x := fieldElement{
		binary.BigEndian.Uint64(h[:8]),
		binary.BigEndian.Uint64(h[8:]),
	}
	// productTable[d] is d·H for one hex digit d, the digit's bits in
	// the order a field element's low nibble holds them.
	var productTable [16]fieldElement
	productTable[reverseBits(1)] = x
	for i := 2; i < 16; i += 2 {
		productTable[reverseBits(i)] = double(productTable[reverseBits(i/2)])
		productTable[reverseBits(i+1)] = add(productTable[reverseBits(i)], x)
	}
	// A byte's low nibble holds the higher-degree digit, so by Horner
	// b·H = (lo·H)·x^4 + hi·H.
	k := &Key{}
	for b := range k.byteTable {
		k.byteTable[b] = add(shift4(productTable[b&0xf]), productTable[b>>4])
	}
	return k
}

// shift4 multiplies by x^4: four doublings.
func shift4(x fieldElement) fieldElement {
	return double(double(double(double(x))))
}

// mul sets y = y * H, one byte of y at a time (Horner's rule from the
// highest-degree byte down).
func (k *Key) mul(y *fieldElement) {
	var z fieldElement
	for _, word := range [2]uint64{y.high, y.low} {
		for j := 0; j < 64; j += 8 {
			msb := z.high & 0xff
			z.high = z.high>>8 | z.low<<56
			z.low = z.low>>8 ^ reductionTable[msb]
			t := &k.byteTable[word&0xff]
			z.low ^= t.low
			z.high ^= t.high
			word >>= 8
		}
	}
	*y = z
}

// absorb folds one 16-byte block into the accumulator: y = (y ⊕ b) · H.
func (k *Key) absorb(y *fieldElement, block []byte) {
	y.low ^= binary.BigEndian.Uint64(block[:8])
	y.high ^= binary.BigEndian.Uint64(block[8:])
	k.mul(y)
}

// Sum computes the full 16-byte GHASH of data, allocation-free. A
// ragged tail is zero-padded, and a final length block closes the
// polynomial, so inputs of different lengths never collide by padding.
//
//repro:hotpath
func (k *Key) Sum(data []byte) [KeySize]byte {
	var y fieldElement
	k.sumInto(&y, data)
	return k.serialize(&y)
}

func (k *Key) sumInto(y *fieldElement, data []byte) {
	n := len(data)
	for len(data) >= KeySize {
		k.absorb(y, data[:KeySize])
		data = data[KeySize:]
	}
	if len(data) > 0 {
		var pad [KeySize]byte
		copy(pad[:], data)
		k.absorb(y, pad[:])
	}
	var lenBlock [KeySize]byte
	binary.BigEndian.PutUint64(lenBlock[8:], uint64(n)*8)
	k.absorb(y, lenBlock[:])
}

func (k *Key) serialize(y *fieldElement) [KeySize]byte {
	var out [KeySize]byte
	binary.BigEndian.PutUint64(out[:8], y.low)
	binary.BigEndian.PutUint64(out[8:], y.high)
	return out
}

// TagLine computes the truncated authenticator the memory engines store
// per protected node: GHASH over a prefix block carrying the address
// and version (the bindings that stop splicing and replay) followed by
// the node's bytes. Allocation-free.
//
//repro:hotpath
func (k *Key) TagLine(addr, version uint64, data []byte) Tag {
	var y fieldElement
	var prefix [KeySize]byte
	binary.BigEndian.PutUint64(prefix[:8], addr)
	binary.BigEndian.PutUint64(prefix[8:], version)
	k.absorb(&y, prefix[:])
	k.sumInto(&y, data)
	full := k.serialize(&y)
	var t Tag
	copy(t[:], full[:TagBytes])
	return t
}
