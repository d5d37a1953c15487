package aes

import (
	"bytes"
	stdaes "crypto/aes"
	"encoding/hex"
	"math/rand"
	"testing"
	"testing/quick"
)

func mustHex(t *testing.T, s string) []byte {
	t.Helper()
	b, err := hex.DecodeString(s)
	if err != nil {
		t.Fatalf("bad hex %q: %v", s, err)
	}
	return b
}

// fipsVectors are the FIPS-197 Appendix B / C vectors.
var fipsVectors = []struct{ key, pt, ct string }{
	{"2b7e151628aed2a6abf7158809cf4f3c", "3243f6a8885a308d313198a2e0370734", "3925841d02dc09fbdc118597196a0b32"},
	{"000102030405060708090a0b0c0d0e0f", "00112233445566778899aabbccddeeff", "69c4e0d86a7b0430d8cdb78070b4c55a"},
	{"000102030405060708090a0b0c0d0e0f1011121314151617", "00112233445566778899aabbccddeeff", "dda97ca4864cdfe06eaf70a0ec0d7191"},
	{"000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f", "00112233445566778899aabbccddeeff", "8ea2b7ca516745bfeafc49904b496089"},
}

func TestFIPSVectors(t *testing.T) {
	for _, c := range fipsVectors {
		ci, err := New(mustHex(t, c.key))
		if err != nil {
			t.Fatal(err)
		}
		got := make([]byte, 16)
		ci.Encrypt(got, mustHex(t, c.pt))
		if hex.EncodeToString(got) != c.ct {
			t.Errorf("key %s: encrypt = %x, want %s", c.key, got, c.ct)
		}
		back := make([]byte, 16)
		ci.Decrypt(back, got)
		if hex.EncodeToString(back) != c.pt {
			t.Errorf("key %s: decrypt = %x, want %s", c.key, back, c.pt)
		}
	}
}

func TestKeySizeError(t *testing.T) {
	for _, n := range []int{0, 1, 15, 17, 23, 25, 31, 33, 64} {
		if _, err := New(make([]byte, n)); err == nil {
			t.Errorf("New with %d-byte key: want error, got nil", n)
		}
	}
	var e error = KeySizeError(7)
	if e.Error() == "" {
		t.Error("KeySizeError has empty message")
	}
}

func TestRoundsPerKeySize(t *testing.T) {
	for _, c := range []struct{ keyLen, rounds int }{{16, 10}, {24, 12}, {32, 14}} {
		ci, err := New(make([]byte, c.keyLen))
		if err != nil {
			t.Fatal(err)
		}
		if ci.rounds != c.rounds || len(ci.enc) != 4*(c.rounds+1) {
			t.Errorf("key len %d: rounds = %d with %d round-key words, want %d rounds",
				c.keyLen, ci.rounds, len(ci.enc), c.rounds)
		}
		if ci.BlockSize() != 16 {
			t.Errorf("BlockSize = %d, want 16", ci.BlockSize())
		}
	}
}

// TestAgainstStdlib cross-checks every key size against crypto/aes on
// random inputs.
func TestAgainstStdlib(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, keyLen := range []int{16, 24, 32} {
		for trial := 0; trial < 200; trial++ {
			key := make([]byte, keyLen)
			rng.Read(key)
			pt := make([]byte, 16)
			rng.Read(pt)

			ours, err := New(key)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := stdaes.NewCipher(key)
			if err != nil {
				t.Fatal(err)
			}
			want := make([]byte, 16)
			ref.Encrypt(want, pt)
			got := make([]byte, 16)
			ours.Encrypt(got, pt)
			if !bytes.Equal(got, want) {
				t.Fatalf("keyLen %d: encrypt mismatch\nkey %x\npt  %x\ngot %x\nwant %x", keyLen, key, pt, got, want)
			}
			back := make([]byte, 16)
			ours.Decrypt(back, got)
			if !bytes.Equal(back, pt) {
				t.Fatalf("keyLen %d: roundtrip mismatch", keyLen)
			}
		}
	}
}

// FuzzAgainstStdlib is the differential oracle: for any key and block
// the fuzzer finds, New must accept exactly the key sizes crypto/aes
// accepts, and Encrypt and Decrypt must match it byte for byte. Blocks
// are zero-padded or truncated to 16 bytes.
func FuzzAgainstStdlib(f *testing.F) {
	for _, v := range fipsVectors {
		key, _ := hex.DecodeString(v.key)
		pt, _ := hex.DecodeString(v.pt)
		f.Add(key, pt)
	}
	f.Fuzz(func(t *testing.T, key, block []byte) {
		ours, err := New(key)
		ref, refErr := stdaes.NewCipher(key)
		if (err == nil) != (refErr == nil) {
			t.Fatalf("key length %d: New error %v, crypto/aes error %v", len(key), err, refErr)
		}
		if err != nil {
			return
		}
		var in [BlockSize]byte
		copy(in[:], block)
		var got, want [BlockSize]byte
		ours.Encrypt(got[:], in[:])
		ref.Encrypt(want[:], in[:])
		if got != want {
			t.Fatalf("encrypt key %x block %x: got %x, want %x", key, in, got, want)
		}
		ours.Decrypt(got[:], in[:])
		ref.Decrypt(want[:], in[:])
		if got != want {
			t.Fatalf("decrypt key %x block %x: got %x, want %x", key, in, got, want)
		}
	})
}

// TestEncryptDecryptInverse is the property-based roundtrip check.
func TestEncryptDecryptInverse(t *testing.T) {
	ci, err := New([]byte("0123456789abcdef"))
	if err != nil {
		t.Fatal(err)
	}
	f := func(pt [16]byte) bool {
		ct := make([]byte, 16)
		ci.Encrypt(ct, pt[:])
		back := make([]byte, 16)
		ci.Decrypt(back, ct)
		return bytes.Equal(back, pt[:])
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestShortInputPanics(t *testing.T) {
	ci, _ := New(make([]byte, 16))
	for name, f := range map[string]func(){
		"Encrypt": func() { ci.Encrypt(make([]byte, 16), make([]byte, 15)) },
		"Decrypt": func() { ci.Decrypt(make([]byte, 16), make([]byte, 15)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s with short input did not panic", name)
				}
			}()
			f()
		}()
	}
}

func TestSboxIsPermutationAndInverse(t *testing.T) {
	var seen [256]bool
	for i := 0; i < 256; i++ {
		v := sbox[i]
		if seen[v] {
			t.Fatalf("sbox not a permutation: value %#x repeated", v)
		}
		seen[v] = true
		if invSbox[v] != byte(i) {
			t.Fatalf("invSbox[sbox[%#x]] = %#x", i, invSbox[v])
		}
	}
	// Known anchor values from FIPS-197.
	if sbox[0x00] != 0x63 || sbox[0x53] != 0xed {
		t.Errorf("sbox anchors wrong: sbox[0]=%#x sbox[0x53]=%#x", sbox[0x00], sbox[0x53])
	}
}

func TestGFMulProperties(t *testing.T) {
	// Commutativity and identity on a sample grid.
	for a := 0; a < 256; a += 7 {
		for b := 0; b < 256; b += 11 {
			if mul(byte(a), byte(b)) != mul(byte(b), byte(a)) {
				t.Fatalf("mul not commutative at %d,%d", a, b)
			}
		}
		if mul(byte(a), 1) != byte(a) {
			t.Fatalf("mul identity fails at %d", a)
		}
	}
	// inv is a true inverse for all nonzero elements.
	for a := 1; a < 256; a++ {
		if mul(byte(a), inv(byte(a))) != 1 {
			t.Fatalf("inv(%d) wrong", a)
		}
	}
}

func BenchmarkEncrypt(b *testing.B) {
	ci, _ := New(make([]byte, 16))
	src := make([]byte, 16)
	dst := make([]byte, 16)
	b.SetBytes(16)
	for i := 0; i < b.N; i++ {
		ci.Encrypt(dst, src)
	}
}

func BenchmarkDecrypt(b *testing.B) {
	ci, _ := New(make([]byte, 16))
	src := make([]byte, 16)
	dst := make([]byte, 16)
	b.SetBytes(16)
	for i := 0; i < b.N; i++ {
		ci.Decrypt(dst, src)
	}
}
