// Package hashenc implements the DHE encoding stage (Algorithm 1, steps
// 1–2): k universal hash functions [Carter & Wegman] map a categorical
// feature value to k integers in [0, m), which are then scaled uniformly
// into [-1, 1] to form the decoder's input vector.
//
// The entire computation is straight-line arithmetic over the input value:
// no table lookups, no data-dependent branches and no division by a
// variable. The Mersenne reductions are a fold and a masked subtract; the
// bucket reduction divides by the compile-time constant m, which the
// compiler turns into a multiply and a shift; and each hash reaches float
// through int64, whose conversion needs no sign test. This is precisely
// why the paper re-purposes DHE as a side-channel-safe embedding generator
// — the memory access pattern and the instruction stream of encoding are
// independent of the secret feature value.
package hashenc

import (
	"math/bits"
	"math/rand"
)

// DefaultBuckets is the paper's hash bucket size m = 10^6, the bucket
// count of every encoder.
const DefaultBuckets = 1_000_000

// mersenne61 = 2^61 - 1, a Mersenne prime used as the universal-hash
// modulus p. All hash parameters live in [0, p), comfortably above any
// table cardinality or LLM vocabulary, as universal hashing requires.
const mersenne61 = (1 << 61) - 1

// Encoder holds k universal hash functions h_i(x) = ((a_i·x + b_i) mod p)
// mod m and scales their outputs to [-1, 1].
type Encoder struct {
	K int

	a, b []uint64
}

// New draws k hash functions with a_i ∈ [1, p), b_i ∈ [0, p) from a
// deterministic PRNG so models are reproducible. The bucket count is the
// constant DefaultBuckets; m must be 0 or DefaultBuckets and is kept only
// so existing callers compile.
func New(k int, m uint64, seed int64) *Encoder {
	if k <= 0 {
		panic("hashenc: k must be positive")
	}
	if m != 0 && m != DefaultBuckets {
		panic("hashenc: the bucket count is fixed at DefaultBuckets")
	}
	rng := rand.New(rand.NewSource(seed))
	e := &Encoder{K: k, a: make([]uint64, k), b: make([]uint64, k)}
	for i := 0; i < k; i++ {
		e.a[i] = 1 + uint64(rng.Int63n(mersenne61-1))
		e.b[i] = uint64(rng.Int63n(mersenne61))
	}
	return e
}

// mod61 reduces v modulo 2^61-1 branchlessly. The fold leaves v ≤ p+7,
// which may still equal or exceed the modulus; (v+1)>>61 is then 1
// exactly when v ≥ p, so p is subtracted under a mask, not a branch.
//
// secemb:secret v return
func mod61(v uint64) uint64 {
	v = (v & mersenne61) + (v >> 61)
	return v - (mersenne61 & -((v + 1) >> 61))
}

// mulfold61 returns a value below 2^62 congruent to a·b mod 2^61-1, for
// a, b < 2^61, using the Mersenne folding identity 2^64 ≡ 2^3 (mod p).
// It leaves the last reduction to the caller: the hash adds b first and
// reduces once.
//
// secemb:secret a b return
func mulfold61(a, b uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	// a,b < 2^61 ⇒ the true product < 2^122 ⇒ hi < 2^58, so hi<<3 < 2^61.
	return (lo & mersenne61) + (lo >> 61) + hi<<3
}

// hash61 is one hash ((a·xr + b) mod p) mod m of an id already reduced
// mod p. The sum of the folded product and b is below 2^63, which mod61
// reduces exactly. The divisor m is a constant, so the compiler emits a
// multiply and a shift: no division instruction, whose latency can depend
// on the dividend, ever sees the secret.
//
// secemb:secret xr return
func hash61(a, b, xr uint64) uint64 {
	return mod61(mulfold61(a, xr)+b) % DefaultBuckets
}

// Encode writes the k scaled hash values for x into out (len ≥ K):
// out[i] = 2·h_i(x)/(m-1) − 1 ∈ [-1, 1] (Algorithm 1, step 2). x is
// reduced mod p once for all k hashes.
//
// secemb:secret x
func (e *Encoder) Encode(x uint64, out []float32) {
	const scale = 2 / float32(DefaultBuckets-1)
	xr := mod61(x)
	b := e.b[:len(e.a)]
	out = out[:len(e.a)]
	for i, a := range e.a {
		out[i] = float32(int64(hash61(a, b[i], xr)))*scale - 1
	}
}

// EncodeBatch encodes each id into one row of a len(ids)×K row-major
// buffer and returns it.
//
// secemb:secret ids
func (e *Encoder) EncodeBatch(ids []uint64) []float32 {
	return e.EncodeBatchInto(ids, make([]float32, len(ids)*e.K))
}

// EncodeBatchInto encodes into out (len ≥ len(ids)·K), reusing caller
// storage — the allocation-free hot path — and returns the written prefix.
//
// secemb:secret ids
func (e *Encoder) EncodeBatchInto(ids []uint64, out []float32) []float32 {
	out = out[:len(ids)*e.K]
	for r, id := range ids {
		e.Encode(id, out[r*e.K:(r+1)*e.K])
	}
	return out
}

// NumBytes reports the parameter footprint of the encoder (the a_i, b_i).
func (e *Encoder) NumBytes() int64 { return int64(e.K) * 16 }
