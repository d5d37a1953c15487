// Package aes implements the AES block cipher (FIPS-197) from scratch.
//
// It is the AES core behind the bus-encryption engine models in this
// repository (XOM's pipelined AES, AEGIS's AES-CBC unit). The engines'
// timing models charge cycles from their own pipeline parameters; this
// package only supplies the whole-block Encrypt/Decrypt.
//
// The rounds run on 32-bit T-tables: each te/td entry folds SubBytes
// (or InvSubBytes) and one column of MixColumns (or InvMixColumns) for
// one input byte, and ShiftRows becomes the choice of which state word
// feeds which table, so a round is 16 lookups plus the round key. The
// S-box, round constants and T-tables are all derived at init from
// GF(2^8) arithmetic rather than pasted as literal tables; correctness
// is cross-checked against the Go standard library's crypto/aes in the
// test suite (including a differential fuzz target) and against the
// FIPS-197 appendix vectors.
package aes

import (
	"encoding/binary"
	"fmt"
	"math/bits"
)

// BlockSize is the AES block size in bytes (fixed by the standard).
const BlockSize = 16

// Number of rounds for each supported key length, per FIPS-197.
const (
	rounds128 = 10
	rounds192 = 12
	rounds256 = 14
)

// sbox and invSbox are built in init from GF(2^8) inversion plus the
// affine transform defined in FIPS-197 §5.1.1.
var (
	sbox    [256]byte
	invSbox [256]byte
)

// te0..te3 and td0..td3 are the encryption and decryption T-tables,
// built in init. te0[x] is the MixColumns column (2s, s, s, 3s) of
// s = sbox[x], big-endian in the word; td0[x] is the InvMixColumns
// column (14s, 9s, 13s, 11s) of s = invSbox[x]. teN and tdN are the
// same words rotated right by 8N bits, for the byte in row N.
var te0, te1, te2, te3, td0, td1, td2, td3 [256]uint32

// mul multiplies two elements of GF(2^8) modulo the AES polynomial
// x^8 + x^4 + x^3 + x + 1 (0x11b).
func mul(a, b byte) byte {
	var p byte
	for i := 0; i < 8; i++ {
		if b&1 != 0 {
			p ^= a
		}
		hi := a & 0x80
		a <<= 1
		if hi != 0 {
			a ^= 0x1b
		}
		b >>= 1
	}
	return p
}

// inv returns the multiplicative inverse in GF(2^8), with inv(0) = 0 as
// the standard requires for the S-box construction.
func inv(a byte) byte {
	if a == 0 {
		return 0
	}
	// Brute-force inverse: the field has 255 invertible elements, so a
	// linear scan at init time is perfectly adequate and obviously right.
	for b := 1; b < 256; b++ {
		if mul(a, byte(b)) == 1 {
			return byte(b)
		}
	}
	panic("aes: GF(2^8) element without inverse") // unreachable
}

func init() {
	for i := 0; i < 256; i++ {
		x := inv(byte(i))
		// Affine transform: b'_i = b_i ^ b_{i+4} ^ b_{i+5} ^ b_{i+6} ^ b_{i+7} ^ c_i
		y := x ^ rotl8(x, 1) ^ rotl8(x, 2) ^ rotl8(x, 3) ^ rotl8(x, 4) ^ 0x63
		sbox[i] = y
		invSbox[y] = byte(i)
	}
	for i := 0; i < 256; i++ {
		s := sbox[i]
		w := uint32(mul(s, 2))<<24 | uint32(s)<<16 | uint32(s)<<8 | uint32(mul(s, 3))
		te0[i], te1[i], te2[i], te3[i] = w, bits.RotateLeft32(w, -8), bits.RotateLeft32(w, -16), bits.RotateLeft32(w, -24)
		s = invSbox[i]
		w = uint32(mul(s, 14))<<24 | uint32(mul(s, 9))<<16 | uint32(mul(s, 13))<<8 | uint32(mul(s, 11))
		td0[i], td1[i], td2[i], td3[i] = w, bits.RotateLeft32(w, -8), bits.RotateLeft32(w, -16), bits.RotateLeft32(w, -24)
	}
}

func rotl8(x byte, n uint) byte { return x<<n | x>>(8-n) }

// KeySizeError reports an unsupported key length.
type KeySizeError int

func (k KeySizeError) Error() string {
	return fmt.Sprintf("aes: invalid key size %d (want 16, 24, or 32)", int(k))
}

// Cipher is an expanded-key AES instance. It implements
// crypto/cipher.Block, the contract the mode and engine code consumes.
type Cipher struct {
	enc    []uint32 // encryption round keys, 4 words per round key
	dec    []uint32 // decryption round keys (equivalent inverse cipher)
	rounds int
}

// New expands key (16, 24 or 32 bytes) into an AES cipher instance.
func New(key []byte) (*Cipher, error) {
	var nr int
	switch len(key) {
	case 16:
		nr = rounds128
	case 24:
		nr = rounds192
	case 32:
		nr = rounds256
	default:
		return nil, KeySizeError(len(key))
	}
	c := &Cipher{rounds: nr}
	c.expandKey(key)
	return c, nil
}

// BlockSize returns the AES block size, 16 bytes.
func (c *Cipher) BlockSize() int { return BlockSize }

func (c *Cipher) expandKey(key []byte) {
	nk := len(key) / 4
	n := 4 * (c.rounds + 1)
	w := make([]uint32, n)
	for i := 0; i < nk; i++ {
		w[i] = binary.BigEndian.Uint32(key[4*i:])
	}
	rcon := uint32(1) << 24
	for i := nk; i < n; i++ {
		t := w[i-1]
		if i%nk == 0 {
			t = subWord(rotWord(t)) ^ rcon
			rcon = uint32(mul(byte(rcon>>24), 2)) << 24
		} else if nk > 6 && i%nk == 4 {
			t = subWord(t)
		}
		w[i] = w[i-nk] ^ t
	}
	c.enc = w

	// Equivalent inverse cipher round keys: reverse round order and apply
	// InvMixColumns to the middle round keys (FIPS-197 §5.3.5).
	d := make([]uint32, n)
	for i := 0; i < n; i += 4 {
		src := n - 4 - i
		for j := 0; j < 4; j++ {
			t := w[src+j]
			if i > 0 && i < n-4 {
				t = invMixWord(t)
			}
			d[i+j] = t
		}
	}
	c.dec = d
}

func rotWord(w uint32) uint32 { return w<<8 | w>>24 }

func subWord(w uint32) uint32 { return subShift(&sbox, w, w, w, w) }

// invMixWord applies InvMixColumns to one round-key word. td0[sbox[b]]
// is the InvMixColumns column of b itself, so the decryption T-tables
// serve the key schedule too.
func invMixWord(w uint32) uint32 {
	return td0[sbox[w>>24]] ^ td1[sbox[w>>16&0xff]] ^ td2[sbox[w>>8&0xff]] ^ td3[sbox[w&0xff]]
}

// Encrypt encrypts exactly one 16-byte block from src into dst.
// dst and src may overlap entirely or not at all.
func (c *Cipher) Encrypt(dst, src []byte) {
	if len(src) < BlockSize || len(dst) < BlockSize {
		panic("aes: input not full block")
	}
	// The state is column-major: word c holds column c, row 0 in its
	// top byte, matching the round-key word layout.
	k := c.enc
	s0 := binary.BigEndian.Uint32(src[0:4]) ^ k[0]
	s1 := binary.BigEndian.Uint32(src[4:8]) ^ k[1]
	s2 := binary.BigEndian.Uint32(src[8:12]) ^ k[2]
	s3 := binary.BigEndian.Uint32(src[12:16]) ^ k[3]
	for r := 1; r < c.rounds; r++ {
		k = k[4:]
		t0 := te0[s0>>24] ^ te1[s1>>16&0xff] ^ te2[s2>>8&0xff] ^ te3[s3&0xff] ^ k[0]
		t1 := te0[s1>>24] ^ te1[s2>>16&0xff] ^ te2[s3>>8&0xff] ^ te3[s0&0xff] ^ k[1]
		t2 := te0[s2>>24] ^ te1[s3>>16&0xff] ^ te2[s0>>8&0xff] ^ te3[s1&0xff] ^ k[2]
		t3 := te0[s3>>24] ^ te1[s0>>16&0xff] ^ te2[s1>>8&0xff] ^ te3[s2&0xff] ^ k[3]
		s0, s1, s2, s3 = t0, t1, t2, t3
	}
	// The last round has no MixColumns: SubBytes and ShiftRows only.
	k = k[4:]
	binary.BigEndian.PutUint32(dst[0:4], subShift(&sbox, s0, s1, s2, s3)^k[0])
	binary.BigEndian.PutUint32(dst[4:8], subShift(&sbox, s1, s2, s3, s0)^k[1])
	binary.BigEndian.PutUint32(dst[8:12], subShift(&sbox, s2, s3, s0, s1)^k[2])
	binary.BigEndian.PutUint32(dst[12:16], subShift(&sbox, s3, s0, s1, s2)^k[3])
}

// Decrypt decrypts exactly one 16-byte block from src into dst using the
// equivalent inverse cipher.
func (c *Cipher) Decrypt(dst, src []byte) {
	if len(src) < BlockSize || len(dst) < BlockSize {
		panic("aes: input not full block")
	}
	k := c.dec
	s0 := binary.BigEndian.Uint32(src[0:4]) ^ k[0]
	s1 := binary.BigEndian.Uint32(src[4:8]) ^ k[1]
	s2 := binary.BigEndian.Uint32(src[8:12]) ^ k[2]
	s3 := binary.BigEndian.Uint32(src[12:16]) ^ k[3]
	for r := 1; r < c.rounds; r++ {
		k = k[4:]
		t0 := td0[s0>>24] ^ td1[s3>>16&0xff] ^ td2[s2>>8&0xff] ^ td3[s1&0xff] ^ k[0]
		t1 := td0[s1>>24] ^ td1[s0>>16&0xff] ^ td2[s3>>8&0xff] ^ td3[s2&0xff] ^ k[1]
		t2 := td0[s2>>24] ^ td1[s1>>16&0xff] ^ td2[s0>>8&0xff] ^ td3[s3&0xff] ^ k[2]
		t3 := td0[s3>>24] ^ td1[s2>>16&0xff] ^ td2[s1>>8&0xff] ^ td3[s0&0xff] ^ k[3]
		s0, s1, s2, s3 = t0, t1, t2, t3
	}
	k = k[4:]
	binary.BigEndian.PutUint32(dst[0:4], subShift(&invSbox, s0, s3, s2, s1)^k[0])
	binary.BigEndian.PutUint32(dst[4:8], subShift(&invSbox, s1, s0, s3, s2)^k[1])
	binary.BigEndian.PutUint32(dst[8:12], subShift(&invSbox, s2, s1, s0, s3)^k[2])
	binary.BigEndian.PutUint32(dst[12:16], subShift(&invSbox, s3, s2, s1, s0)^k[3])
}

// subShift builds one output column of a final round: row r's byte is
// box applied to row r of column wr, where the caller passes the
// columns ShiftRows (or InvShiftRows) routes into this one.
func subShift(box *[256]byte, w0, w1, w2, w3 uint32) uint32 {
	return uint32(box[w0>>24])<<24 | uint32(box[w1>>16&0xff])<<16 |
		uint32(box[w2>>8&0xff])<<8 | uint32(box[w3&0xff])
}
