package hashenc

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/big"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"
)

// hash returns h_i(x) ∈ [0, DefaultBuckets), the value Encode scales.
func (e *Encoder) hash(i int, x uint64) uint64 {
	return hash61(e.a[i], e.b[i], mod61(x))
}

func TestMod61MatchesBigInt(t *testing.T) {
	p := big.NewInt(mersenne61)
	f := func(v uint64) bool {
		want := new(big.Int).Mod(new(big.Int).SetUint64(v), p).Uint64()
		return mod61(v) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
	// Boundary values.
	for _, v := range []uint64{0, 1, mersenne61 - 1, mersenne61, mersenne61 + 1, ^uint64(0)} {
		want := new(big.Int).Mod(new(big.Int).SetUint64(v), p).Uint64()
		if got := mod61(v); got != want {
			t.Fatalf("mod61(%d)=%d, want %d", v, got, want)
		}
	}
}

// TestMulmod61MatchesBigInt checks the multiply the hashes use: the folded
// product stays below 2^62 and reduces to a·b mod p.
func TestMulmod61MatchesBigInt(t *testing.T) {
	p := big.NewInt(mersenne61)
	mulmod61 := func(a, b uint64) uint64 {
		v := mulfold61(a, b)
		if v >= 1<<62 {
			t.Fatalf("mulfold61(%d,%d)=%d, not below 2^62", a, b, v)
		}
		return mod61(v)
	}
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 5000; trial++ {
		a := uint64(rng.Int63n(mersenne61))
		b := uint64(rng.Int63n(mersenne61))
		want := new(big.Int).Mul(new(big.Int).SetUint64(a), new(big.Int).SetUint64(b))
		want.Mod(want, p)
		if got := mulmod61(a, b); got != want.Uint64() {
			t.Fatalf("mulmod61(%d,%d)=%d, want %d", a, b, got, want.Uint64())
		}
	}
	// Extremes.
	if mulmod61(mersenne61-1, mersenne61-1) != 1 { // (-1)² = 1 mod p
		t.Fatal("mulmod61 at p-1 wrong")
	}
}

func TestHashRangeAndDeterminism(t *testing.T) {
	e := New(8, 0, 42)
	for x := uint64(0); x < 500; x++ {
		for i := 0; i < 8; i++ {
			h := e.hash(i, x)
			if h >= DefaultBuckets {
				t.Fatalf("hash %d out of range", h)
			}
			if h != e.hash(i, x) {
				t.Fatal("hash not deterministic")
			}
		}
	}
}

func TestSameSeedSameEncoder(t *testing.T) {
	a, b := New(4, 0, 7), New(4, 0, 7)
	for x := uint64(0); x < 100; x++ {
		for i := 0; i < 4; i++ {
			if a.hash(i, x) != b.hash(i, x) {
				t.Fatal("same seed must give identical encoders")
			}
		}
	}
	c := New(4, 0, 8)
	diff := 0
	for x := uint64(0); x < 100; x++ {
		if a.hash(0, x) != c.hash(0, x) {
			diff++
		}
	}
	if diff == 0 {
		t.Fatal("different seeds must give different hash functions")
	}
}

func TestEncodeRange(t *testing.T) {
	e := New(16, 0, 3)
	out := make([]float32, 16)
	for _, x := range []uint64{0, 1, 999999, 1 << 40} {
		e.Encode(x, out)
		for i, v := range out {
			if v < -1 || v > 1 {
				t.Fatalf("Encode(%d)[%d] = %v out of [-1,1]", x, i, v)
			}
		}
	}
}

func TestEncodeDistribution(t *testing.T) {
	// Universal hashing should spread values: the empirical mean of the
	// scaled outputs over many inputs is near 0 and the spread is wide.
	e := New(32, 0, 9)
	out := make([]float32, 32)
	var sum, sumsq float64
	n := 0
	for x := uint64(0); x < 2000; x++ {
		e.Encode(x, out)
		for _, v := range out {
			sum += float64(v)
			sumsq += float64(v) * float64(v)
			n++
		}
	}
	mean := sum / float64(n)
	variance := sumsq/float64(n) - mean*mean
	if mean < -0.05 || mean > 0.05 {
		t.Fatalf("mean %v too far from 0", mean)
	}
	// Uniform on [-1,1] has variance 1/3.
	if variance < 0.25 || variance > 0.4 {
		t.Fatalf("variance %v not close to 1/3", variance)
	}
}

func TestCollisionRateSane(t *testing.T) {
	// Distinct inputs should rarely collide across all k hashes
	// simultaneously: the k-vector should be unique for practical inputs.
	e := New(4, 0, 11)
	seen := map[[4]uint64]uint64{}
	for x := uint64(0); x < 5000; x++ {
		var key [4]uint64
		for i := 0; i < 4; i++ {
			key[i] = e.hash(i, x)
		}
		if prev, ok := seen[key]; ok {
			t.Fatalf("full k-vector collision between %d and %d", prev, x)
		}
		seen[key] = x
	}
}

func TestEncodeBatch(t *testing.T) {
	e := New(8, 0, 13)
	ids := []uint64{3, 9, 3}
	b := e.EncodeBatch(ids)
	if len(b) != 24 {
		t.Fatalf("batch len %d", len(b))
	}
	for i := 0; i < 8; i++ {
		if b[i] != b[16+i] {
			t.Fatal("same id must encode identically within a batch")
		}
	}
}

func TestNewPanicsOnBadK(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(0, 0, 1)
}

func TestNumBytes(t *testing.T) {
	if New(10, 0, 1).NumBytes() != 160 {
		t.Fatal("NumBytes wrong")
	}
}

func BenchmarkEncodeK1024(b *testing.B) {
	e := New(1024, 0, 1)
	out := make([]float32, 1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Encode(uint64(i), out)
	}
}

func TestGaussianEncodeMoments(t *testing.T) {
	e := NewGaussian(32, 21)
	out := make([]float32, 32)
	var sum, sumsq float64
	n := 0
	for x := uint64(0); x < 3000; x++ {
		e.Encode(x, out)
		for _, v := range out {
			if v < -4 || v > 4 {
				t.Fatalf("value %v escaped clamp", v)
			}
			sum += float64(v)
			sumsq += float64(v) * float64(v)
			n++
		}
	}
	mean := sum / float64(n)
	variance := sumsq/float64(n) - mean*mean
	if mean < -0.05 || mean > 0.05 {
		t.Fatalf("Gaussian mean %v too far from 0", mean)
	}
	if variance < 0.85 || variance > 1.15 {
		t.Fatalf("Gaussian variance %v too far from 1", variance)
	}
}

func TestGaussianEncodeDeterministic(t *testing.T) {
	a, b := NewGaussian(8, 5), NewGaussian(8, 5)
	oa, ob := make([]float32, 8), make([]float32, 8)
	for x := uint64(0); x < 50; x++ {
		a.Encode(x, oa)
		b.Encode(x, ob)
		for i := range oa {
			if oa[i] != ob[i] {
				t.Fatal("Gaussian encoding not deterministic per seed")
			}
		}
	}
	c := NewGaussian(8, 6)
	c.Encode(1, ob)
	a.Encode(1, oa)
	same := true
	for i := range oa {
		if oa[i] != ob[i] {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds must differ")
	}
}

func TestGaussianEncodeBatchAndBytes(t *testing.T) {
	e := NewGaussian(4, 7)
	b := e.EncodeBatch([]uint64{9, 9})
	if len(b) != 8 {
		t.Fatalf("batch len %d", len(b))
	}
	for i := 0; i < 4; i++ {
		if b[i] != b[4+i] {
			t.Fatal("same id must encode identically")
		}
	}
	if e.NumBytes() != 2*New(4, 0, 1).NumBytes() {
		t.Fatal("NumBytes must count both families")
	}
}

// goldenIDs are the ids the encoder digests pin: the edges of the Mersenne
// reduction (0, p−1, p, p+1, 2⁶², 2⁶⁴−1) and 1000 seeded ids.
func goldenIDs() []uint64 {
	ids := []uint64{0, mersenne61 - 1, mersenne61, mersenne61 + 1, 1 << 62, ^uint64(0)}
	rng := rand.New(rand.NewSource(20250925))
	for range 1000 {
		ids = append(ids, rng.Uint64())
	}
	return ids
}

// encodeDigest hashes the float32 bits of encode(id) over goldenIDs.
func encodeDigest(k int, encode func(uint64, []float32)) string {
	h := sha256.New()
	out := make([]float32, k)
	var b [4]byte
	for _, id := range goldenIDs() {
		encode(id, out)
		for _, v := range out {
			binary.LittleEndian.PutUint32(b[:], math.Float32bits(v))
			h.Write(b[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestEncodeGolden pins the uniform and Gaussian encodings bit for bit:
// a faster encoder must compute exactly the same floats. The Gaussian
// digest holds on amd64 only, where math.Log is the assembly routine it
// was taken with.
func TestEncodeGolden(t *testing.T) {
	for _, tc := range []struct {
		k             int
		uniform, gaus string
	}{
		{128, "70201683d68c90bd4df71ada9a5cab0b033d1f681c4088764c26c9133eb8e8c0", "fc79de6ec3519ff9a7e8ca2ae270654c801d18a098be54fbf1ad373c4e2ea12f"},
		{1024, "d07706e40cb5d3b4a30efaefe2c53ffd48b7bef038b3a9a01121ff7e6f7ee30b", "d46884d76c730cb7e2f4aaf58b3c7d18dbc677c074877769c237a63f2b4582ce"},
	} {
		if got := encodeDigest(tc.k, New(tc.k, 0, 1).Encode); got != tc.uniform {
			t.Errorf("K=%d uniform digest %s, want %s", tc.k, got, tc.uniform)
		}
		if got := encodeDigest(tc.k, NewGaussian(tc.k, 1).Encode); runtime.GOARCH == "amd64" && got != tc.gaus {
			t.Errorf("K=%d Gaussian digest %s, want %s", tc.k, got, tc.gaus)
		}
	}
}
