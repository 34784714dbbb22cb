package profile

import (
	"encoding/json"
	"fmt"
	"io"
)

// Persistence for the threshold database: profiling "is done once per
// system for each embedding dimension" (§IV-C1), so deployments save the
// DB and reload it at model-serving time rather than re-profiling.

// dbJSON is the serialized form (map keys must be strings in JSON).
type dbJSON struct {
	Dim        int            `json:"dim"`
	Kind       string         `json:"kind"`
	Thresholds map[string]int `json:"thresholds"` // "batch=B,threads=T" → size
}

func (db *DB) encoded() dbJSON {
	out := dbJSON{Dim: db.Dim, Kind: db.Kind.String(), Thresholds: map[string]int{}}
	for cfg, thr := range db.Thresholds {
		out.Thresholds[cfg.String()] = thr
	}
	return out
}

// LoadDB reads a DB written by SaveFile. A threshold key must be spelled
// exactly as ExecConfig.String renders it, with batch and threads ≥ 1, so
// no two keys in a file can name one configuration.
func LoadDB(r io.Reader) (*DB, error) {
	var in dbJSON
	if err := json.NewDecoder(r).Decode(&in); err != nil {
		return nil, fmt.Errorf("profile: decoding threshold DB: %w", err)
	}
	db := &DB{Dim: in.Dim, Thresholds: map[ExecConfig]int{}}
	switch in.Kind {
	case "Uniform":
		db.Kind = Uniform
	case "Varied":
		db.Kind = Varied
	default:
		return nil, fmt.Errorf("profile: unknown DHE kind %q", in.Kind)
	}
	for key, thr := range in.Thresholds {
		var cfg ExecConfig
		if _, err := fmt.Sscanf(key, "batch=%d,threads=%d", &cfg.Batch, &cfg.Threads); err != nil {
			return nil, fmt.Errorf("profile: bad config key %q: %w", key, err)
		}
		if cfg.String() != key || cfg.Batch < 1 || cfg.Threads < 1 {
			return nil, fmt.Errorf("profile: bad config key %q", key)
		}
		db.Thresholds[cfg] = thr
	}
	return db, nil
}

// SaveFile writes the DB to path as JSON.
func (db *DB) SaveFile(path string) error { return saveJSONFile(path, db.encoded()) }

// LoadFile reads a threshold DB from disk.
func LoadFile(path string) (*DB, error) { return loadFile(path, LoadDB) }
