package token

import "testing"

// FuzzEncodeDecode: encoding arbitrary text never panics, produces
// in-vocabulary ids, and decoding the result is safe.
func FuzzEncodeDecode(f *testing.F) {
	tk := Build("the quick brown fox jumps over the lazy dog", 16)
	f.Add("hello world")
	f.Add("THE QUICK fox!!!")
	f.Add("")
	f.Add("\x00\xff weird \t bytes")
	f.Fuzz(func(t *testing.T, text string) {
		ids := tk.Encode(text)
		for _, id := range ids {
			if id < 0 || id >= tk.vocabSize() {
				t.Fatalf("id %d out of vocab", id)
			}
		}
		_ = tk.Decode(ids)
	})
}
