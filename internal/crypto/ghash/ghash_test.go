package ghash

import (
	"bytes"
	"crypto/aes"
	"crypto/cipher"
	"encoding/binary"
	"encoding/hex"
	"math/rand"
	"testing"
)

// slowMul is an independent GF(2^128) multiplication written straight
// from the NIST SP 800-38D definition: bit-by-bit conditional add with
// shift-reduce by R = 0xe1·x^120. It shares no code with the table
// implementation, so agreement between the two validates both.
func slowMul(x, y [16]byte) [16]byte {
	var z [16]byte
	v := x
	for i := 0; i < 128; i++ {
		if y[i/8]&(0x80>>(i%8)) != 0 {
			for j := range z {
				z[j] ^= v[j]
			}
		}
		lsb := v[15] & 1
		// Right shift the whole 128-bit value by one bit.
		var carry byte
		for j := 0; j < 16; j++ {
			next := v[j] & 1
			v[j] = v[j]>>1 | carry<<7
			carry = next
		}
		if lsb == 1 {
			v[0] ^= 0xe1
		}
	}
	return z
}

// slowSum reimplements Sum's message schedule (blocks, zero-padded
// tail, closing length block) over slowMul.
func slowSum(h []byte, data []byte) [16]byte {
	var hh [16]byte
	copy(hh[:], h)
	var y [16]byte
	absorb := func(block [16]byte) {
		for i := range y {
			y[i] ^= block[i]
		}
		y = slowMul(y, hh)
	}
	n := len(data)
	for len(data) >= 16 {
		var b [16]byte
		copy(b[:], data[:16])
		absorb(b)
		data = data[16:]
	}
	if len(data) > 0 {
		var b [16]byte
		copy(b[:], data)
		absorb(b)
	}
	var lenBlock [16]byte
	binary.BigEndian.PutUint64(lenBlock[8:], uint64(n)*8)
	absorb(lenBlock)
	return y
}

func TestFastMatchesBitwiseReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		h := make([]byte, KeySize)
		rng.Read(h)
		k := NewKey(h)
		for _, n := range []int{0, 1, 8, 15, 16, 17, 32, 33, 64, 100} {
			data := make([]byte, n)
			rng.Read(data)
			fast := k.Sum(data)
			slow := slowSum(h, data)
			if fast != slow {
				t.Fatalf("trial %d len %d: fast %x != slow %x (h=%x)", trial, n, fast, slow, h)
			}
		}
	}
}

// The GCM spec's test case 2 intermediate value: GHASH with
// H = 66e94bd4ef8a2c3b884cfa59ca342b2e over a single ciphertext block
// and the standard length block — exactly Sum's framing for a 16-byte
// input with no associated data.
func TestNISTGCMVector(t *testing.T) {
	h, _ := hex.DecodeString("66e94bd4ef8a2c3b884cfa59ca342b2e")
	c, _ := hex.DecodeString("0388dace60b6a392f328c2b971b2fe78")
	want, _ := hex.DecodeString("f38cbb1ad69223dcc3457ae5b6b0f885")
	got := NewKey(h).Sum(c)
	if !bytes.Equal(got[:], want) {
		t.Fatalf("GHASH = %x, want %x", got, want)
	}
}

func TestTagLineBindings(t *testing.T) {
	k := NewKey([]byte("0123456789abcdef"))
	line := make([]byte, 32)
	for i := range line {
		line[i] = byte(i)
	}
	base := k.TagLine(0x1000, 3, line)

	if got := k.TagLine(0x1000, 3, line); got != base {
		t.Fatalf("tag not deterministic: %x vs %x", got, base)
	}
	if got := k.TagLine(0x2000, 3, line); got == base {
		t.Fatalf("tag ignores address (splice would pass)")
	}
	if got := k.TagLine(0x1000, 4, line); got == base {
		t.Fatalf("tag ignores version (replay would pass)")
	}
	mutated := append([]byte(nil), line...)
	mutated[7] ^= 1
	if got := k.TagLine(0x1000, 3, mutated); got == base {
		t.Fatalf("tag ignores content (spoof would pass)")
	}
	if got := NewKey([]byte("fedcba9876543210")).TagLine(0x1000, 3, line); got == base {
		t.Fatalf("tag ignores key")
	}
}

func TestTagLineMatchesReference(t *testing.T) {
	h := []byte("0123456789abcdef")
	k := NewKey(h)
	line := make([]byte, 32)
	rand.New(rand.NewSource(7)).Read(line)
	got := k.TagLine(0xdead0000, 42, line)

	// Reference: prefix block (addr ‖ version) followed by the line,
	// through the bitwise implementation with the same framing. The
	// length block covers only the data bytes, as sumInto does.
	var hh [16]byte
	copy(hh[:], h)
	var y [16]byte
	var prefix [16]byte
	binary.BigEndian.PutUint64(prefix[:8], 0xdead0000)
	binary.BigEndian.PutUint64(prefix[8:], 42)
	for i := range y {
		y[i] ^= prefix[i]
	}
	y = slowMul(y, hh)
	for off := 0; off < 32; off += 16 {
		var b [16]byte
		copy(b[:], line[off:off+16])
		for i := range y {
			y[i] ^= b[i]
		}
		y = slowMul(y, hh)
	}
	var lenBlock [16]byte
	binary.BigEndian.PutUint64(lenBlock[8:], 32*8)
	for i := range y {
		y[i] ^= lenBlock[i]
	}
	y = slowMul(y, hh)

	if !bytes.Equal(got[:], y[:TagBytes]) {
		t.Fatalf("TagLine = %x, reference prefix %x", got, y[:TagBytes])
	}
}

func TestSumZeroAllocs(t *testing.T) {
	k := NewKey([]byte("0123456789abcdef"))
	line := make([]byte, 32)
	if avg := testing.AllocsPerRun(100, func() {
		_ = k.TagLine(0x40, 1, line)
	}); avg != 0 {
		t.Fatalf("TagLine allocates %.1f per call, want 0", avg)
	}
}

// gcmGHASH computes GHASH under H = AES_K(0^128) through the standard
// library's GCM, an implementation that shares no code with this
// package. GCM's tag is GHASH_H(C) ⊕ E_K(J0) with no associated data,
// and the empty message's tag is E_K(J0) alone (its GHASH is 0), so
// XORing the two tags leaves GHASH_H(C). Choosing the plaintext as
// data ⊕ keystream makes the ciphertext C equal data, and GHASH_H(C)
// then has exactly Sum's framing.
func gcmGHASH(t *testing.T, key, data []byte) (h [KeySize]byte, sum [KeySize]byte) {
	t.Helper()
	block, err := aes.NewCipher(key)
	if err != nil {
		t.Fatal(err)
	}
	block.Encrypt(h[:], make([]byte, KeySize))
	aead, err := cipher.NewGCM(block)
	if err != nil {
		t.Fatal(err)
	}
	nonce := make([]byte, aead.NonceSize())
	keystream := aead.Seal(nil, nonce, make([]byte, len(data)), nil)[:len(data)]
	plain := make([]byte, len(data))
	for i := range plain {
		plain[i] = data[i] ^ keystream[i]
	}
	sealed := aead.Seal(nil, nonce, plain, nil)
	if !bytes.Equal(sealed[:len(data)], data) {
		t.Fatalf("chosen plaintext did not encrypt to data")
	}
	tag := sealed[len(data):]
	emptyTag := aead.Seal(nil, nonce, nil, nil)
	for i := range sum {
		sum[i] = tag[i] ^ emptyTag[i]
	}
	return h, sum
}

// Sum must equal GHASH as crypto/cipher's GCM computes it, for random
// keys and every length class (empty, ragged tail, whole blocks).
func TestSumAgainstGCM(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 20; trial++ {
		key := make([]byte, 16)
		rng.Read(key)
		for _, n := range []int{0, 1, 15, 16, 17, 32, 48, 64, 100} {
			data := make([]byte, n)
			rng.Read(data)
			h, want := gcmGHASH(t, key, data)
			if got := NewKey(h[:]).Sum(data); got != want {
				t.Fatalf("trial %d len %d: Sum %x, GCM %x (H=%x)", trial, n, got, want, h)
			}
		}
	}
}

// FuzzSumAgainstGCM is the differential oracle as a fuzz target: any
// AES key (zero-padded or truncated to 16 bytes) and any data.
func FuzzSumAgainstGCM(f *testing.F) {
	nistC, _ := hex.DecodeString("0388dace60b6a392f328c2b971b2fe78")
	f.Add(make([]byte, 16), nistC)
	f.Add([]byte("0123456789abcdef"), make([]byte, 32))
	f.Add([]byte("fedcba9876543210"), []byte("a ragged tail"))
	f.Add([]byte{}, []byte{})
	f.Fuzz(func(t *testing.T, key, data []byte) {
		var k [16]byte
		copy(k[:], key)
		h, want := gcmGHASH(t, k[:], data)
		if got := NewKey(h[:]).Sum(data); got != want {
			t.Fatalf("Sum %x, GCM %x (key=%x, len %d)", got, want, k, len(data))
		}
	})
}

// BenchmarkTagLine is the per-line tag cost the tree verifier pays on
// every verify and update: one 32-byte line behind the address/version
// prefix block.
func BenchmarkTagLine(b *testing.B) {
	k := NewKey([]byte("0123456789abcdef"))
	line := make([]byte, 32)
	b.SetBytes(int64(len(line)))
	b.ReportAllocs()
	var i uint64
	for b.Loop() {
		k.TagLine(i<<5, i, line)
		i++
	}
}
