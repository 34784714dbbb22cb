package profile

import (
	"encoding/json"
	"fmt"
	"io"

	"secemb/internal/obs"
	"secemb/internal/tensor"
)

// Kernel-autotuner persistence. Like the threshold DB, the autotune search
// runs once per machine: the chosen block/worker configuration depends on
// core count and cache geometry, not on the model or any secret, so a
// deployment can pin a tuned config to disk and skip the startup probe on
// subsequent runs. The file records the machine shape it was tuned on and
// InstallTuneFile skips a config recorded on different hardware — falling
// back to re-tuning is always safe.

// MachineTune is the serialized kernel configuration plus the machine
// fingerprint it was measured on.
type MachineTune struct {
	Fingerprint

	Tune tensor.TuneConfig `json:"tune"`
}

// CurrentMachineTune captures the installed kernel config with this
// machine's fingerprint.
func CurrentMachineTune() MachineTune {
	return MachineTune{Fingerprint: currentFingerprint(), Tune: tensor.CurrentTune()}
}

// LoadTune reads a machine tune written by SaveTuneFile.
func LoadTune(r io.Reader) (MachineTune, error) {
	var m MachineTune
	if err := json.NewDecoder(r).Decode(&m); err != nil {
		return MachineTune{}, fmt.Errorf("profile: decoding machine tune: %w", err)
	}
	// Workers 0 is legitimate ("all procs", the pre-tune default); block
	// and inline thresholds must be positive to be installable.
	if m.Tune.Workers < 0 || m.Tune.BlockRows < 1 || m.Tune.InlineRows < 1 {
		return MachineTune{}, fmt.Errorf("profile: machine tune %+v has out-of-range fields", m.Tune)
	}
	return m, nil
}

// SaveTuneFile writes the machine tune to path as JSON.
func SaveTuneFile(path string, m MachineTune) error { return saveJSONFile(path, m) }

// LoadTuneFile reads a machine tune from disk.
func LoadTuneFile(path string) (MachineTune, error) { return loadFile(path, LoadTune) }

// InstallTuneFile loads path and installs its config when the fingerprint
// matches this machine; installed reports whether it did. A missing or
// mismatched file is not an error — the caller should autotune instead —
// and a mismatch is logged and counted (kind="tune"; see installFile). reg
// may be nil.
func InstallTuneFile(path string, reg *obs.Registry) (installed bool, err error) {
	m, installed, err := installFile(path, "tune", reg, LoadTune)
	if installed {
		tensor.SetTune(m.Tune)
	}
	return installed, err
}
