package llm

import (
	"fmt"

	"secemb/internal/tensor"
)

// Fused cross-request generation: many independent single-sequence
// sessions of the same pipeline advance together, with every token
// embedding produced by ONE Generate call. This is the entry point the
// serving layer's micro-batcher uses to lift concurrent decode streams to
// the embedding batch sizes the paper's Figures 5/15 assume — and the
// batch sizes the §IV-D Dual scheme dispatches on: a coalesced decode
// step of B streams presents batch B to the generator, flipping it across
// the DHE/Circuit-ORAM threshold even though each caller decodes one
// token at a time. The fused batch size is public (request count), the
// token ids inside it are not (§V-B).

// fusedSeqs checks that sessions are fusable — all single-sequence, all on
// the same pipeline — and lists sequence 0 of each.
func fusedSeqs(sessions []*Session) (*Pipeline, []seq, error) {
	if len(sessions) == 0 {
		return nil, nil, fmt.Errorf("llm: fused call needs at least one session")
	}
	p := sessions[0].p
	seqs := make([]seq, len(sessions))
	for i, s := range sessions {
		if s.p != p {
			return nil, nil, fmt.Errorf("llm: session %d belongs to a different pipeline", i)
		}
		if len(s.lens) != 1 {
			return nil, nil, fmt.Errorf("llm: session %d has %d sequences; fused calls take single-sequence sessions", i, len(s.lens))
		}
		seqs[i] = seq{s, 0}
	}
	return p, seqs, nil
}

// DecodeFused appends one token to every session and returns each
// session's next-token logits (one 1×Vocab matrix per session). The
// embedding-generation batch equals len(sessions) — the coalesced decode
// batch — instead of 1 per caller.
func DecodeFused(sessions []*Session, tokens []int) ([]*tensor.Matrix, error) {
	p, seqs, err := fusedSeqs(sessions)
	if err != nil {
		return nil, err
	}
	return p.decode(seqs, tokens)
}
