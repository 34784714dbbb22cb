package profile

import (
	"encoding/json"
	"io"
	"log"
	"os"
	"runtime"

	"secemb/internal/obs"
)

// The persisted profile artifacts — threshold DB, kernel tune, planner cost
// model — are indented-JSON files written and read through the helpers
// here. The two that embed this host's speed (tune, cost model) carry a
// Fingerprint and are installed only on the machine shape they were
// measured on; falling back to re-measuring is always safe.

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

// machine lets installFile read the fingerprint of any type embedding one.
func (f Fingerprint) machine() Fingerprint { return f }

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

// installFile loads a fingerprinted artifact and reports whether it was
// recorded on this machine shape. A missing file is not an error — the
// caller measures afresh — and neither is a mismatch, but a mismatch is
// never silent: it is logged and counted
// (profile_install_skipped_total{kind,reason="fingerprint"} in reg, which
// may be nil) so an operator can tell a stale file from a loaded one and a
// dashboard can alert on a fleet quietly re-probing every start.
func installFile[T interface{ machine() Fingerprint }](path, kind string, reg *obs.Registry,
	load func(io.Reader) (T, error)) (v T, installed bool, err error) {
	var zero T
	v, err = loadFile(path, load)
	if os.IsNotExist(err) {
		return zero, false, nil
	}
	if err != nil {
		return zero, false, err
	}
	if rec := v.machine(); !rec.Matches() {
		now := currentFingerprint()
		log.Printf("profile: skipping %s file %s: machine fingerprint mismatch (recorded GOMAXPROCS=%d NumCPU=%d, running GOMAXPROCS=%d NumCPU=%d)",
			kind, path, rec.GOMAXPROCS, rec.NumCPU, now.GOMAXPROCS, now.NumCPU)
		reg.Counter("profile_install_skipped_total", "kind", kind, "reason", "fingerprint").Inc()
		return zero, false, nil
	}
	return v, true, nil
}
