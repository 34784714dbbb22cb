package profile

import (
	"encoding/json"
	"io"
	"os"
	"runtime"
)

// The persisted profile artifacts — threshold DB, planner cost model — are
// indented-JSON files written and read through the helpers here. The cost
// model embeds this host's speed, so it carries a Fingerprint and is
// installed only on the machine shape it was measured on; falling back to
// re-measuring is always safe.

// Fingerprint identifies the machine shape a measurement was taken on.
type Fingerprint struct {
	GOMAXPROCS int `json:"gomaxprocs"`
	NumCPU     int `json:"numcpu"`
}

func currentFingerprint() Fingerprint {
	return Fingerprint{GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU()}
}

// Matches reports whether the recorded fingerprint describes the running
// machine.
func (f Fingerprint) Matches() bool { return f == currentFingerprint() }

func writeJSON(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

func saveJSONFile(path string, v any) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := writeJSON(f, v); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// loadFile opens path and decodes it with load, which validates what it
// decodes.
func loadFile[T any](path string, load func(io.Reader) (T, error)) (T, error) {
	f, err := os.Open(path)
	if err != nil {
		var zero T
		return zero, err
	}
	defer f.Close()
	return load(f)
}
