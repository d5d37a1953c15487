package des

import (
	"bytes"
	"crypto/cipher"
	stddes "crypto/des"
	"encoding/hex"
	"math/bits"
	"math/rand"
	"testing"
	"testing/quick"
)

// knownVectors are the classic published DES vector and the degenerate
// all-zero and all-one ones.
var knownVectors = []struct{ key, pt, ct string }{
	{"133457799bbcdff1", "0123456789abcdef", "85e813540f0ab405"},
	{"0000000000000000", "0000000000000000", "8ca64de9c1b123a7"},
	{"ffffffffffffffff", "ffffffffffffffff", "7359b2163e4edc58"},
}

func TestKnownVectors(t *testing.T) {
	for _, c := range knownVectors {
		key, _ := hex.DecodeString(c.key)
		pt, _ := hex.DecodeString(c.pt)
		ci, err := New(key)
		if err != nil {
			t.Fatal(err)
		}
		got := make([]byte, 8)
		ci.Encrypt(got, pt)
		if hex.EncodeToString(got) != c.ct {
			t.Errorf("key %s: got %x, want %s", c.key, got, c.ct)
		}
		back := make([]byte, 8)
		ci.Decrypt(back, got)
		if !bytes.Equal(back, pt) {
			t.Errorf("key %s: decrypt roundtrip failed", c.key)
		}
	}
}

func TestAgainstStdlib(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 300; trial++ {
		key := make([]byte, 8)
		rng.Read(key)
		pt := make([]byte, 8)
		rng.Read(pt)

		ours, err := New(key)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := stddes.NewCipher(key)
		if err != nil {
			t.Fatal(err)
		}
		want := make([]byte, 8)
		ref.Encrypt(want, pt)
		got := make([]byte, 8)
		ours.Encrypt(got, pt)
		if !bytes.Equal(got, want) {
			t.Fatalf("encrypt mismatch key %x pt %x: got %x want %x", key, pt, got, want)
		}
	}
}

func TestTripleAgainstStdlib(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 100; trial++ {
		key := make([]byte, 24)
		rng.Read(key)
		pt := make([]byte, 8)
		rng.Read(pt)

		ours, err := NewTriple(key)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := stddes.NewTripleDESCipher(key)
		if err != nil {
			t.Fatal(err)
		}
		want := make([]byte, 8)
		ref.Encrypt(want, pt)
		got := make([]byte, 8)
		ours.Encrypt(got, pt)
		if !bytes.Equal(got, want) {
			t.Fatalf("3des mismatch key %x: got %x want %x", key, got, want)
		}
		back := make([]byte, 8)
		ours.Decrypt(back, got)
		if !bytes.Equal(back, pt) {
			t.Fatal("3des roundtrip failed")
		}
	}
}

// checkAgainst compares Encrypt and Decrypt of ours with ref on one
// block, zero-padded or truncated to 8 bytes.
func checkAgainst(t *testing.T, ours, ref cipher.Block, key, block []byte) {
	t.Helper()
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
}

// FuzzAgainstStdlib is the differential oracle for single DES: New must
// accept exactly the keys crypto/des accepts, and Encrypt and Decrypt
// must match it byte for byte.
func FuzzAgainstStdlib(f *testing.F) {
	for _, v := range knownVectors {
		key, _ := hex.DecodeString(v.key)
		pt, _ := hex.DecodeString(v.pt)
		f.Add(key, pt)
	}
	f.Fuzz(func(t *testing.T, key, block []byte) {
		ours, err := New(key)
		ref, refErr := stddes.NewCipher(key)
		if (err == nil) != (refErr == nil) {
			t.Fatalf("key length %d: New error %v, crypto/des error %v", len(key), err, refErr)
		}
		if err == nil {
			checkAgainst(t, ours, ref, key, block)
		}
	})
}

// FuzzTripleAgainstStdlib is the 3-DES oracle. crypto/des takes only
// 24-byte keys, so a 16-byte EDE2 key K1‖K2 is checked against
// K1‖K2‖K1; every other length must be rejected.
func FuzzTripleAgainstStdlib(f *testing.F) {
	for _, v := range knownVectors {
		key, _ := hex.DecodeString(v.key)
		pt, _ := hex.DecodeString(v.pt)
		f.Add(bytes.Repeat(key, 3), pt)
		f.Add(bytes.Repeat(key, 2), pt)
	}
	f.Fuzz(func(t *testing.T, key, block []byte) {
		ours, err := NewTriple(key)
		var refKey []byte
		switch len(key) {
		case 16:
			refKey = append(append([]byte{}, key...), key[:8]...)
		case 24:
			refKey = key
		default:
			if err == nil {
				t.Fatalf("NewTriple accepted a %d-byte key", len(key))
			}
			return
		}
		if err != nil {
			t.Fatalf("NewTriple(%d-byte key): %v", len(key), err)
		}
		ref, err := stddes.NewTripleDESCipher(refKey)
		if err != nil {
			t.Fatal(err)
		}
		checkAgainst(t, ours, ref, key, block)
	})
}

// EDE2 with K1==K2==K3 degenerates to single DES; EDE2 (16-byte key)
// reuses K1 as K3.
func TestTripleDegeneratesToSingle(t *testing.T) {
	key := []byte("8bytekey")
	k24 := append(append(append([]byte{}, key...), key...), key...)
	single, _ := New(key)
	triple, _ := NewTriple(k24)
	pt := []byte("survey05")
	a := make([]byte, 8)
	b := make([]byte, 8)
	single.Encrypt(a, pt)
	triple.Encrypt(b, pt)
	if !bytes.Equal(a, b) {
		t.Error("EDE with equal keys does not degenerate to single DES")
	}
}

func TestTripleEDE2(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	k16 := make([]byte, 16)
	rng.Read(k16)
	k24 := append(append([]byte{}, k16...), k16[:8]...)
	a, _ := NewTriple(k16)
	b, _ := NewTriple(k24)
	pt := make([]byte, 8)
	rng.Read(pt)
	ca := make([]byte, 8)
	cb := make([]byte, 8)
	a.Encrypt(ca, pt)
	b.Encrypt(cb, pt)
	if !bytes.Equal(ca, cb) {
		t.Error("EDE2 16-byte key does not equal EDE3 with K3=K1")
	}
}

func TestKeySizeErrors(t *testing.T) {
	if _, err := New(make([]byte, 7)); err == nil {
		t.Error("New(7 bytes): want error")
	}
	if _, err := NewTriple(make([]byte, 8)); err == nil {
		t.Error("NewTriple(8 bytes): want error")
	}
	if KeySizeError(3).Error() == "" {
		t.Error("empty KeySizeError message")
	}
}

func TestRoundtripProperty(t *testing.T) {
	ci, _ := New([]byte("propkey!"))
	tri, _ := NewTriple([]byte("propkey!propkey@propkey#"))
	f := func(pt [8]byte) bool {
		ct := make([]byte, 8)
		back := make([]byte, 8)
		ci.Encrypt(ct, pt[:])
		ci.Decrypt(back, ct)
		if !bytes.Equal(back, pt[:]) {
			return false
		}
		tri.Encrypt(ct, pt[:])
		tri.Decrypt(back, ct)
		return bytes.Equal(back, pt[:])
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// DES complementation property: E_k̄(p̄) = Ē_k(p). A classic structural
// invariant; if the tables were mis-transcribed this fails immediately.
func TestComplementationProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		key := make([]byte, 8)
		pt := make([]byte, 8)
		rng.Read(key)
		rng.Read(pt)
		nkey := make([]byte, 8)
		npt := make([]byte, 8)
		for i := range key {
			nkey[i] = ^key[i]
			npt[i] = ^pt[i]
		}
		c1, _ := New(key)
		c2, _ := New(nkey)
		a := make([]byte, 8)
		b := make([]byte, 8)
		c1.Encrypt(a, pt)
		c2.Encrypt(b, npt)
		for i := range a {
			if a[i] != ^b[i] {
				t.Fatalf("complementation property violated at byte %d", i)
			}
		}
	}
}

// TestExpansionByRotation checks the rotation form of E that feistel
// uses against the standard's expansion table.
func TestExpansionByRotation(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 1000; trial++ {
		r := rng.Uint32()
		e := permute(uint64(r), 32, expansion[:])
		for i := 0; i < 8; i++ {
			want := uint32(e>>(42-6*uint(i))) & 0x3f
			if got := bits.RotateLeft32(r, 4*i-1) >> 26; got != want {
				t.Fatalf("r=%#x chunk %d: rotation gives %#x, table %#x", r, i, got, want)
			}
		}
	}
}

func BenchmarkEncrypt(b *testing.B) {
	ci, _ := New(make([]byte, 8))
	src := make([]byte, 8)
	dst := make([]byte, 8)
	b.SetBytes(8)
	for i := 0; i < b.N; i++ {
		ci.Encrypt(dst, src)
	}
}

func BenchmarkTripleEncrypt(b *testing.B) {
	ci, _ := NewTriple(make([]byte, 24))
	src := make([]byte, 8)
	dst := make([]byte, 8)
	b.SetBytes(8)
	for i := 0; i < b.N; i++ {
		ci.Encrypt(dst, src)
	}
}
