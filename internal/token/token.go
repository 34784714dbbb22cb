// Package token implements a small deterministic word-level tokenizer.
//
// In the paper's threat model, "the tokenization's encoding and decoding
// processes between natural language tokens and their token IDs happen on
// a trusted local device and not in an untrusted cloud" (§III) — the
// tokenizer is public and runs client-side; only the resulting token IDs
// (the secrets the embedding layer must protect) reach the server. This
// package provides that client-side piece: frequency-ranked vocabulary
// construction, encoding with an <unk> fallback, and decoding.
package token

import (
	"sort"
	"strings"
)

// Reserved token ids.
const (
	UnknownID = 0 // <unk>: out-of-vocabulary words
	EndID     = 1 // <eos>: end of sequence
	reserved  = 2
)

// Tokenizer maps words to stable integer ids.
type Tokenizer struct {
	ids   map[string]int
	words []string // indexed by id
}

// Build constructs a vocabulary of at most maxVocab entries (including
// the reserved tokens) from the corpus, keeping the most frequent words;
// ties break lexicographically so construction is fully deterministic.
func Build(corpus string, maxVocab int) *Tokenizer {
	if maxVocab <= reserved {
		maxVocab = reserved + 1
	}
	freq := map[string]int{}
	for _, w := range Fields(corpus) {
		freq[w]++
	}
	type wf struct {
		w string
		f int
	}
	all := make([]wf, 0, len(freq))
	for w, f := range freq {
		all = append(all, wf{w, f})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].f != all[j].f {
			return all[i].f > all[j].f
		}
		return all[i].w < all[j].w
	})
	t := &Tokenizer{
		ids:   map[string]int{},
		words: []string{"<unk>", "<eos>"},
	}
	for _, e := range all {
		if len(t.words) >= maxVocab {
			break
		}
		t.ids[e.w] = len(t.words)
		t.words = append(t.words, e.w)
	}
	return t
}

// Fields normalizes and splits text into word tokens: lower-cased,
// punctuation-separated.
func Fields(text string) []string {
	return strings.FieldsFunc(strings.ToLower(text), func(r rune) bool {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9', r == '\'':
			return false
		}
		return true
	})
}

// Encode maps text to token ids; unknown words become UnknownID.
func (t *Tokenizer) Encode(text string) []int {
	words := Fields(text)
	out := make([]int, len(words))
	for i, w := range words {
		if id, ok := t.ids[w]; ok {
			out[i] = id
		} else {
			out[i] = UnknownID
		}
	}
	return out
}

// Decode maps token ids back to a space-joined string.
func (t *Tokenizer) Decode(ids []int) string {
	parts := make([]string, 0, len(ids))
	for _, id := range ids {
		if id == EndID {
			break
		}
		if id >= 0 && id < len(t.words) {
			parts = append(parts, t.words[id])
		} else {
			parts = append(parts, "<invalid>")
		}
	}
	return strings.Join(parts, " ")
}

// ID returns the token id for a word and whether it is in vocabulary.
func (t *Tokenizer) ID(word string) (int, bool) {
	id, ok := t.ids[strings.ToLower(word)]
	return id, ok
}
