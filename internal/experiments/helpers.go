package experiments

import (
	"secemb/internal/dhe"
	"secemb/internal/oram"
	"secemb/internal/perf"
)

// dheBytes is the parameter footprint of a DHE architecture: hash
// parameters (16 B each) plus decoder weights and biases (float32).
func dheBytes(cfg dhe.Config) int64 {
	weights, biases := cfg.DecoderParams()
	return (weights+biases)*4 + int64(cfg.K)*16
}

// circuitBytes / pathBytes are the analytic tree-ORAM footprints.
func circuitBytes(rows, dim int) int64 { return oram.CircuitFootprintBytes(rows, dim) }
func pathBytes(rows, dim int) int64    { return oram.PathFootprintBytes(rows, dim) }

// techNs prices one feature's embedding generation under the platform
// model for the named technique string.
func techNs(p perf.Platform, tech string, rows, dim, batch int, seed int64) float64 {
	switch tech {
	case "lookup":
		return p.LookupNs(dim, batch)
	case "scan":
		return p.ScanNs(rows, dim, batch)
	case "path":
		return p.PathNs(rows, dim, batch)
	case "circuit":
		return p.CircuitNs(rows, dim, batch)
	case "dheU":
		return p.DHENs(dhe.UniformConfig(dim, seed), batch)
	case "dheV":
		return p.DHENs(dhe.VariedConfig(dim, rows, seed), batch)
	}
	panic("experiments: unknown technique " + tech)
}

// hybridNs picks min(scan, DHE-of-kind) per feature — Algorithm 3 with the
// model-profiled threshold folded in (choosing the cheaper of the two IS
// the threshold decision).
func hybridNs(p perf.Platform, kind string, rows, dim, batch int, seed int64) float64 {
	scan := p.ScanNs(rows, dim, batch)
	d := techNs(p, kind, rows, dim, batch, seed)
	if scan < d {
		return scan
	}
	return d
}

// hybridBytes accounts the hybrid model memory: features below the
// threshold hold a materialized table (scanned), the rest hold only their
// DHE parameters.
func hybridBytes(kind string, rows, dim, threshold int, seed int64) int64 {
	if rows <= threshold {
		return int64(rows) * int64(dim) * 4
	}
	if kind == "dheU" {
		return dheBytes(dhe.UniformConfig(dim, seed))
	}
	return dheBytes(dhe.VariedConfig(dim, rows, seed))
}

// mlpNs prices a DLRM's bottom+top MLP forward pass (batch rows) on the
// platform model, including the feature-interaction dot products.
func mlpNs(p perf.Platform, denseDim, embDim int, bottomHidden, topHidden []int, numSparse, batch int) float64 {
	var flops float64
	dims := append(append([]int{denseDim}, bottomHidden...), embDim)
	for i := 0; i+1 < len(dims); i++ {
		flops += 2 * float64(dims[i]) * float64(dims[i+1])
	}
	m := numSparse + 1
	interIn := embDim + m*(m-1)/2
	tdims := append(append([]int{interIn}, topHidden...), 1)
	for i := 0; i+1 < len(tdims); i++ {
		flops += 2 * float64(tdims[i]) * float64(tdims[i+1])
	}
	flops += float64(m*(m-1)/2) * 2 * float64(embDim) // interaction dots
	return float64(batch) * flops * p.FlopNs
}
