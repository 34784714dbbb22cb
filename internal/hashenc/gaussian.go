package hashenc

import (
	"math"

	"secemb/internal/oblivious"
)

// GaussianEncoder is the alternative DHE encoding from the original DHE
// paper [Kang et al., KDD'21]: instead of scaling the hash values
// uniformly into [-1, 1] (Algorithm 1, step 2), pairs of independent
// uniform hashes are combined with the Box–Muller transform into
// approximately standard-normal encodings. Like the uniform encoder this
// is pure straight-line arithmetic over the input — equally side-channel
// safe — and is exposed so the encoding choice can be ablated.
type GaussianEncoder struct {
	K int

	u1, u2 *Encoder // two independent k-wide hash families
}

// NewGaussian builds a k-output Gaussian encoder (2k hash functions
// internally).
func NewGaussian(k int, seed int64) *GaussianEncoder {
	return &GaussianEncoder{
		K:  k,
		u1: New(k, 0, seed),
		u2: New(k, 0, seed+0x5bd1e995),
	}
}

// Encode writes k approximately-N(0,1) values for x into out (len ≥ K).
//
// secemb:secret x
func (e *GaussianEncoder) Encode(x uint64, out []float32) {
	const m = float64(DefaultBuckets)
	xr := mod61(x)
	for i := 0; i < e.K; i++ {
		// Map hashes into (0, 1]: u = (h+1)/m.
		u1 := (float64(int64(hash61(e.u1.a[i], e.u1.b[i], xr))) + 1) / m
		u2 := (float64(int64(hash61(e.u2.a[i], e.u2.b[i], xr))) + 1) / m
		z := math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
		// Clamp the rare tail so float32 decoders stay well-conditioned —
		// branchlessly, since whether x hashed into the tail is itself a
		// function of the secret.
		z = oblivious.Clamp64d(z, -4, 4)
		out[i] = float32(z)
	}
}

// EncodeBatch encodes each id into one row of a len(ids)×K buffer.
//
// secemb:secret ids
func (e *GaussianEncoder) EncodeBatch(ids []uint64) []float32 {
	return e.EncodeBatchInto(ids, make([]float32, len(ids)*e.K))
}

// EncodeBatchInto encodes into out (len ≥ len(ids)·K), reusing caller
// storage, and returns the written prefix.
//
// secemb:secret ids
func (e *GaussianEncoder) EncodeBatchInto(ids []uint64, out []float32) []float32 {
	out = out[:len(ids)*e.K]
	for r, id := range ids {
		e.Encode(id, out[r*e.K:(r+1)*e.K])
	}
	return out
}

// NumBytes reports the parameter footprint (both hash families).
func (e *GaussianEncoder) NumBytes() int64 { return e.u1.NumBytes() + e.u2.NumBytes() }
