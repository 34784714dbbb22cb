package data

import "math/rand"

// Corpus is a synthetic token stream with learnable structure, standing in
// for OpenWebText in the LLM experiments. Tokens follow a mixture of
// (a) a deterministic order-1 successor function and (b) a Zipf-skewed
// unigram draw. A language model that learns the successor function drives
// its perplexity well below the unigram entropy, so "finetuning improves
// perplexity" (Figure 14) is measurable at miniature scale.
type Corpus struct {
	Vocab int
	// PSuccessor is the probability the next token is Successor(current).
	PSuccessor float64

	seed int64
}

// NewCorpus builds a corpus over the given vocabulary.
func NewCorpus(vocab int, seed int64) *Corpus {
	if vocab < 2 {
		panic("data: vocabulary must have at least 2 tokens")
	}
	return &Corpus{Vocab: vocab, PSuccessor: 0.7, seed: seed}
}

// Successor is the hidden deterministic next-token function: an affine map
// over the vocabulary, mixed so it is not learnable from token identity
// alone but trivially learnable from the previous token.
func (c *Corpus) Successor(tok int) int {
	x := uint64(tok)*6364136223846793005 + uint64(c.seed) + 1442695040888963407
	x ^= x >> 33
	return int(x % uint64(c.Vocab))
}

// Generate emits n tokens starting from a Zipf draw.
func (c *Corpus) Generate(n int, rng *rand.Rand) []int {
	out := make([]int, n)
	cur := int(ZipfValue(rng, c.Vocab))
	for i := 0; i < n; i++ {
		out[i] = cur
		if rng.Float64() < c.PSuccessor {
			cur = c.Successor(cur)
		} else {
			cur = int(ZipfValue(rng, c.Vocab))
		}
	}
	return out
}

// Batches cuts a token stream into (input, target) windows of the given
// block size for language-model training: target[t] = input[t+1].
func Batches(tokens []int, block int) (inputs, targets [][]int) {
	for lo := 0; lo+block+1 <= len(tokens); lo += block {
		inputs = append(inputs, tokens[lo:lo+block])
		targets = append(targets, tokens[lo+1:lo+block+1])
	}
	return inputs, targets
}
