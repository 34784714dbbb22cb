package dlrm

import (
	"math/rand"

	"secemb/internal/data"
	"secemb/internal/nn"
)

// TrainStep runs one optimization step on a CTR batch and returns the BCE
// loss.
func (m *Model) TrainStep(b data.Batch, opt nn.Optimizer) float64 {
	m.ZeroGrads()
	logits := m.Forward(b.Dense, b.Sparse)
	loss, grad := nn.BCEWithLogits(logits, b.Labels)
	m.Backward(grad)
	opt.Step(m.Params())
	return loss
}

// Train runs `steps` optimization steps over freshly sampled batches and
// returns the final running loss.
func (m *Model) Train(ds *data.CTRDataset, steps, batch int, opt nn.Optimizer, seed int64) float64 {
	rng := rand.New(rand.NewSource(seed))
	var loss float64
	for s := 0; s < steps; s++ {
		loss = m.TrainStep(ds.Sample(batch, rng), opt)
	}
	return loss
}

// Accuracy evaluates classification accuracy (threshold 0.5) over
// nBatches fresh batches — the metric of Table V.
func (m *Model) Accuracy(ds *data.CTRDataset, nBatches, batch int, seed int64) float64 {
	rng := rand.New(rand.NewSource(seed))
	correct, total := 0, 0
	for i := 0; i < nBatches; i++ {
		b := ds.Sample(batch, rng)
		logits := m.Forward(b.Dense, b.Sparse)
		for r := 0; r < batch; r++ {
			pred := float32(0)
			if logits.At(r, 0) > 0 {
				pred = 1
			}
			if pred == b.Labels[r] {
				correct++
			}
			total++
		}
	}
	return float64(correct) / float64(total)
}
