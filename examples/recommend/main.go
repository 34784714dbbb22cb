// Recommend: end-to-end secure CTR prediction. Trains a miniature
// Criteo-Kaggle-layout DLRM with DHE embeddings on planted-truth synthetic
// traffic, deploys it with the hybrid protection scheme (linear scan for
// small features, DHE for large ones), and serves a few requests.
//
//	go run ./examples/recommend
package main

import (
	"fmt"
	"io"
	"math/rand"
	"os"
	"slices"
	"time"

	"secemb/internal/core"
	"secemb/internal/data"
	"secemb/internal/dhe"
	"secemb/internal/dlrm"
	"secemb/internal/nn"
	"secemb/internal/profile"
)

func main() {
	os.Exit(run(os.Stdout))
}

func run(stdout io.Writer) int {
	// Miniature Kaggle layout: same 26-feature shape, scaled cardinalities.
	cards := data.ScaleCardinalities(data.KaggleCardinalities, 5e-5)
	cfg := dlrm.Config{
		DenseDim: 13, EmbDim: 16,
		BottomHidden: []int{64, 32}, TopHidden: []int{64},
		Cardinalities: cards, Seed: 11,
	}
	fmt.Fprintf(stdout, "mini-Kaggle DLRM: %d sparse features (2..%d rows)\n", len(cards), slices.Max(cards))

	// Train with small DHE embeddings everywhere (the paper's offline
	// stage: an all-DHE model can later materialize tables for scanning).
	reps := make([]core.TrainableRep, len(cards))
	rng := rand.New(rand.NewSource(12))
	for i, n := range cards {
		reps[i] = core.NewDHERep(dhe.New(dhe.Config{K: 64, Hidden: []int{32}, Dim: 16, Seed: int64(i)}, rng), n)
	}
	model := dlrm.NewWithReps(cfg, reps)
	ds := data.NewCTR(cfg.DenseDim, cards, 13)

	fmt.Fprint(stdout, "training on planted-truth CTR traffic... ")
	start := time.Now()
	loss := model.Train(ds, 150, 64, nn.NewAdam(0.005), 14)
	fmt.Fprintf(stdout, "done in %v (final loss %.3f)\n", time.Since(start).Round(time.Millisecond), loss)
	fmt.Fprintf(stdout, "test accuracy: %.1f%%\n\n", 100*model.Accuracy(ds, 8, 128, 15))

	// Deploy: profile this host, allocate per Algorithm 3, build hybrid.
	db := profile.BuildDB(cfg.EmbDim, profile.Varied, []int{32}, []int{1}, []int{32, 256, 2048}, 3, 16)
	execCfg := profile.ExecConfig{Batch: 32, Threads: 1}
	techs := db.Allocate(cards, execCfg)
	scanCount := 0
	for _, t := range techs {
		if t == core.LinearScan {
			scanCount++
		}
	}
	fmt.Fprintf(stdout, "hybrid allocation at %v (host threshold %d): %d features scan, %d DHE\n",
		execCfg, db.Threshold(execCfg), scanCount, len(techs)-scanCount)

	pipeline := dlrm.BuildHybrid(model, techs, core.Options{Seed: 17})
	fmt.Fprintf(stdout, "deployed model footprint: %.2f MB (all side-channel protected)\n\n",
		float64(pipeline.NumBytes())/1e6)

	// Serve a few requests.
	b := ds.Sample(4, rand.New(rand.NewSource(18)))
	probs, err := pipeline.Predict(b.Dense, b.Sparse)
	if err != nil {
		fmt.Fprintln(stdout, "predict:", err)
		return 1
	}
	for r := 0; r < 4; r++ {
		fmt.Fprintf(stdout, "request %d: click probability %.3f (actual click: %v)\n",
			r, probs.At(r, 0), b.Labels[r] == 1)
	}
	return 0
}
