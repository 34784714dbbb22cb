package token

import (
	"strings"
	"testing"
	"testing/quick"
)

const sample = "the cat sat on the mat. The CAT ran! A dog barked, and the cat ran away."

// vocabSize returns the number of token ids (including reserved ones).
func (t *Tokenizer) vocabSize() int { return len(t.words) }

// word returns the surface form of a token id.
func (t *Tokenizer) word(id int) string {
	if id < 0 || id >= len(t.words) {
		return "<invalid>"
	}
	return t.words[id]
}

func TestBuildFrequencyRanking(t *testing.T) {
	tk := Build(sample, 100)
	// "the" (4×, incl. "The") must receive the first non-reserved id.
	id, ok := tk.ID("the")
	if !ok || id != reserved {
		t.Fatalf("'the' id=%d ok=%v, want %d", id, ok, reserved)
	}
	if _, ok := tk.ID("cat"); !ok {
		t.Fatal("'cat' missing")
	}
	if tk.vocabSize() <= reserved {
		t.Fatal("vocabulary empty")
	}
}

func TestBuildDeterministic(t *testing.T) {
	a, b := Build(sample, 50), Build(sample, 50)
	if a.vocabSize() != b.vocabSize() {
		t.Fatal("vocab size differs")
	}
	for id := 0; id < a.vocabSize(); id++ {
		if a.word(id) != b.word(id) {
			t.Fatalf("id %d: %q vs %q", id, a.word(id), b.word(id))
		}
	}
}

func TestMaxVocabCap(t *testing.T) {
	tk := Build(sample, 5)
	if tk.vocabSize() != 5 {
		t.Fatalf("VocabSize=%d, want 5", tk.vocabSize())
	}
	// Rare words fall back to <unk>.
	ids := tk.Encode("barked")
	if len(ids) != 1 || ids[0] != UnknownID {
		t.Fatalf("rare word ids=%v, want [<unk>]", ids)
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	tk := Build(sample, 100)
	text := "the cat ran"
	ids := tk.Encode(text)
	if got := tk.Decode(ids); got != text {
		t.Fatalf("round trip: %q → %v → %q", text, ids, got)
	}
}

func TestEncodeCaseAndPunctuation(t *testing.T) {
	tk := Build(sample, 100)
	a := tk.Encode("The CAT!")
	b := tk.Encode("the cat")
	if len(a) != len(b) {
		t.Fatalf("token counts differ: %v vs %v", a, b)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("case/punctuation must normalize away")
		}
	}
}

func TestDecodeStopsAtEOS(t *testing.T) {
	tk := Build(sample, 100)
	catID, _ := tk.ID("cat")
	got := tk.Decode([]int{catID, EndID, catID})
	if got != "cat" {
		t.Fatalf("Decode past <eos>: %q", got)
	}
}

func TestDecodeInvalidID(t *testing.T) {
	tk := Build(sample, 10)
	if !strings.Contains(tk.Decode([]int{9999}), "<invalid>") {
		t.Fatal("invalid ids must be marked")
	}
	if tk.word(-1) != "<invalid>" {
		t.Fatal("negative id must be invalid")
	}
}

func TestFieldsProperties(t *testing.T) {
	f := func(s string) bool {
		for _, w := range Fields(s) {
			if w == "" {
				return false
			}
			if w != strings.ToLower(w) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestEncodeIDsWithinVocab(t *testing.T) {
	tk := Build(sample, 8)
	f := func(s string) bool {
		for _, id := range tk.Encode(s) {
			if id < 0 || id >= tk.vocabSize() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
