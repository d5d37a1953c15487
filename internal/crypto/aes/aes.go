// Package aes implements the AES block cipher (FIPS-197) from scratch.
//
// It is the AES core behind the bus-encryption engine models in this
// repository (XOM's pipelined AES, AEGIS's AES-CBC unit). The engines'
// timing models charge cycles from their own pipeline parameters; this
// package only supplies the whole-block Encrypt/Decrypt.
//
// The S-box and round constants are derived programmatically from GF(2^8)
// arithmetic rather than pasted as literal tables; correctness is
// cross-checked against the Go standard library's crypto/aes in the test
// suite and against the FIPS-197 appendix vectors.
package aes

import "fmt"

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
		w[i] = uint32(key[4*i])<<24 | uint32(key[4*i+1])<<16 | uint32(key[4*i+2])<<8 | uint32(key[4*i+3])
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

func subWord(w uint32) uint32 {
	return uint32(sbox[w>>24])<<24 | uint32(sbox[w>>16&0xff])<<16 |
		uint32(sbox[w>>8&0xff])<<8 | uint32(sbox[w&0xff])
}

func invMixWord(w uint32) uint32 {
	b0, b1, b2, b3 := byte(w>>24), byte(w>>16), byte(w>>8), byte(w)
	return uint32(mul(b0, 14)^mul(b1, 11)^mul(b2, 13)^mul(b3, 9))<<24 |
		uint32(mul(b0, 9)^mul(b1, 14)^mul(b2, 11)^mul(b3, 13))<<16 |
		uint32(mul(b0, 13)^mul(b1, 9)^mul(b2, 14)^mul(b3, 11))<<8 |
		uint32(mul(b0, 11)^mul(b1, 13)^mul(b2, 9)^mul(b3, 14))
}

// state is the 4x4 AES state held column-major in four words, matching
// the word layout of the round keys.
type state [4]uint32

func loadState(src []byte) state {
	var s state
	for i := 0; i < 4; i++ {
		s[i] = uint32(src[4*i])<<24 | uint32(src[4*i+1])<<16 | uint32(src[4*i+2])<<8 | uint32(src[4*i+3])
	}
	return s
}

func (s state) store(dst []byte) {
	for i := 0; i < 4; i++ {
		dst[4*i] = byte(s[i] >> 24)
		dst[4*i+1] = byte(s[i] >> 16)
		dst[4*i+2] = byte(s[i] >> 8)
		dst[4*i+3] = byte(s[i])
	}
}

func (s *state) addRoundKey(rk []uint32) {
	s[0] ^= rk[0]
	s[1] ^= rk[1]
	s[2] ^= rk[2]
	s[3] ^= rk[3]
}

func (s *state) subBytes(box *[256]byte) {
	for i := 0; i < 4; i++ {
		w := s[i]
		s[i] = uint32(box[w>>24])<<24 | uint32(box[w>>16&0xff])<<16 |
			uint32(box[w>>8&0xff])<<8 | uint32(box[w&0xff])
	}
}

// shiftRows rotates row r left by r bytes. With column-major words, row r
// is byte r of every word, so we gather/scatter through a byte matrix;
// clarity wins over micro-optimization here (the engines model timing
// separately, they do not depend on software throughput).
func (s *state) shiftRows() {
	var m [4][4]byte
	for c := 0; c < 4; c++ {
		m[0][c] = byte(s[c] >> 24)
		m[1][c] = byte(s[c] >> 16)
		m[2][c] = byte(s[c] >> 8)
		m[3][c] = byte(s[c])
	}
	for r := 1; r < 4; r++ {
		var row [4]byte
		for c := 0; c < 4; c++ {
			row[c] = m[r][(c+r)%4]
		}
		m[r] = row
	}
	for c := 0; c < 4; c++ {
		s[c] = uint32(m[0][c])<<24 | uint32(m[1][c])<<16 | uint32(m[2][c])<<8 | uint32(m[3][c])
	}
}

func (s *state) invShiftRows() {
	var m [4][4]byte
	for c := 0; c < 4; c++ {
		m[0][c] = byte(s[c] >> 24)
		m[1][c] = byte(s[c] >> 16)
		m[2][c] = byte(s[c] >> 8)
		m[3][c] = byte(s[c])
	}
	for r := 1; r < 4; r++ {
		var row [4]byte
		for c := 0; c < 4; c++ {
			row[(c+r)%4] = m[r][c]
		}
		m[r] = row
	}
	for c := 0; c < 4; c++ {
		s[c] = uint32(m[0][c])<<24 | uint32(m[1][c])<<16 | uint32(m[2][c])<<8 | uint32(m[3][c])
	}
}

func (s *state) mixColumns() {
	for i := 0; i < 4; i++ {
		w := s[i]
		b0, b1, b2, b3 := byte(w>>24), byte(w>>16), byte(w>>8), byte(w)
		s[i] = uint32(mul(b0, 2)^mul(b1, 3)^b2^b3)<<24 |
			uint32(b0^mul(b1, 2)^mul(b2, 3)^b3)<<16 |
			uint32(b0^b1^mul(b2, 2)^mul(b3, 3))<<8 |
			uint32(mul(b0, 3)^b1^b2^mul(b3, 2))
	}
}

func (s *state) invMixColumns() {
	for i := 0; i < 4; i++ {
		s[i] = invMixWord(s[i])
	}
}

// Encrypt encrypts exactly one 16-byte block from src into dst.
// dst and src may overlap entirely or not at all.
func (c *Cipher) Encrypt(dst, src []byte) {
	if len(src) < BlockSize || len(dst) < BlockSize {
		panic("aes: input not full block")
	}
	s := loadState(src)
	s.addRoundKey(c.enc[0:4])
	for r := 1; r < c.rounds; r++ {
		s.subBytes(&sbox)
		s.shiftRows()
		s.mixColumns()
		s.addRoundKey(c.enc[4*r : 4*r+4])
	}
	s.subBytes(&sbox)
	s.shiftRows()
	s.addRoundKey(c.enc[4*c.rounds : 4*c.rounds+4])
	s.store(dst)
}

// Decrypt decrypts exactly one 16-byte block from src into dst using the
// equivalent inverse cipher.
func (c *Cipher) Decrypt(dst, src []byte) {
	if len(src) < BlockSize || len(dst) < BlockSize {
		panic("aes: input not full block")
	}
	s := loadState(src)
	s.addRoundKey(c.dec[0:4])
	for r := 1; r < c.rounds; r++ {
		s.subBytes(&invSbox)
		s.invShiftRows()
		s.invMixColumns()
		s.addRoundKey(c.dec[4*r : 4*r+4])
	}
	s.subBytes(&invSbox)
	s.invShiftRows()
	s.addRoundKey(c.dec[4*c.rounds : 4*c.rounds+4])
	s.store(dst)
}
