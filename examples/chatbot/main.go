// Chatbot: secure text generation. Finetunes a miniature GPT-style model
// with a DHE token embedding on a structured synthetic corpus, then
// generates greedily — token embeddings computed by DHE (no index-leaking
// table lookup) and sampling by the oblivious argmax.
//
//	go run ./examples/chatbot
package main

import (
	"fmt"
	"io"
	"math/rand"
	"os"
	"time"

	"secemb/internal/core"
	"secemb/internal/data"
	"secemb/internal/llm"
	"secemb/internal/nn"
	"secemb/internal/token"
)

func main() {
	os.Exit(run(os.Stdout))
}

func run(stdout io.Writer) int {
	cfg := llm.Config{Vocab: 101, Dim: 24, Heads: 2, Layers: 2, MaxSeq: 24, Seed: 31}
	fmt.Fprintf(stdout, "mini-LLM: vocab %d, dim %d, %d layers — token embedding: DHE\n", cfg.Vocab, cfg.Dim, cfg.Layers)

	corpus := data.NewCorpus(cfg.Vocab, 32)
	rng := rand.New(rand.NewSource(33))
	train := corpus.Generate(8000, rng)
	test := corpus.Generate(600, rng)
	ins, tgts := data.Batches(train, 12)
	tins, ttgts := data.Batches(test, 12)

	model := llm.New(cfg, llm.DHETok)
	fmt.Fprintf(stdout, "perplexity before finetuning: %.1f\n", model.Perplexity(tins, ttgts))

	fmt.Fprint(stdout, "finetuning... ")
	start := time.Now()
	opt := nn.NewAdam(3e-3)
	idx := 0
	for step := 0; step < 120; step++ {
		model.ZeroGrads()
		for b := 0; b < 4; b++ {
			model.TrainSeq(ins[idx%len(ins)], tgts[idx%len(ins)])
			idx++
		}
		opt.Step(model.Params())
	}
	fmt.Fprintf(stdout, "done in %v\n", time.Since(start).Round(time.Millisecond))
	fmt.Fprintf(stdout, "perplexity after finetuning:  %.1f\n\n", model.Perplexity(tins, ttgts))

	// Deploy: the trained DHE serves token embeddings in the pipeline.
	d, _ := core.RepDHE(model.Tok)
	pipeline := llm.FromModel(model, core.MustNew(core.DHE, cfg.Vocab, d.Dim, core.Options{DHE: d}))

	prompt := corpus.Generate(8, rand.New(rand.NewSource(34)))
	session, outs, err := pipeline.Generate([][]int{prompt}, 10)
	if err != nil {
		fmt.Fprintln(stdout, "generate:", err)
		return 1
	}
	fmt.Fprintf(stdout, "prompt tokens:    %v\n", prompt)
	fmt.Fprintf(stdout, "generated tokens: %v\n", outs[0])
	fmt.Fprintf(stdout, "TTFT %v, mean TBT %v\n", session.PrefillTime, session.MeanDecodeTime())

	// How well did it learn the corpus's hidden successor function?
	hits := 0
	full := append(append([]int{}, prompt...), outs[0]...)
	for i := len(prompt) - 1; i+1 < len(full); i++ {
		if full[i+1] == corpus.Successor(full[i]) {
			hits++
		}
	}
	fmt.Fprintf(stdout, "generated continuations following the corpus's hidden dynamics: %d/%d\n\n", hits, len(outs[0]))

	// Client-side tokenization (the paper's threat model, §III): the
	// tokenizer runs on the trusted device; only token IDs — the secrets
	// DHE protects — are sent to the model.
	tk := token.Build(lexicon, cfg.Vocab)
	userText := "the quick brown fox jumps over the lazy dog"
	ids := tk.Encode(userText)
	fmt.Fprintf(stdout, "user text:        %q\n", userText)
	fmt.Fprintf(stdout, "token ids sent:   %v (tokenized client-side)\n", ids)
	session2, reply, err := pipeline.Generate([][]int{ids}, 6)
	if err != nil {
		fmt.Fprintln(stdout, "generate:", err)
		return 1
	}
	fmt.Fprintf(stdout, "model reply ids:  %v\n", reply[0])
	fmt.Fprintf(stdout, "decoded locally:  %q (TTFT %v)\n", tk.Decode(reply[0]), session2.PrefillTime)
	return 0
}

// lexicon seeds the demo vocabulary; in the paper's setting the tokenizer
// (e.g. GPT-2's BPE) is public.
const lexicon = `the quick brown fox jumps over the lazy dog a cat sat on
a mat and the dog ran after the fox while the cat watched the quick brown
birds fly over the lazy river near the old mill town`
