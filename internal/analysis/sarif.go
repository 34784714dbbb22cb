package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"path/filepath"
	"sort"
)

// SARIF output (Static Analysis Results Interchange Format 2.1.0), the
// schema GitHub code scanning ingests: findings surface as inline PR
// annotations instead of a log line in a failed job. Waived findings are
// carried as suppressed results (kind "inSource", justification = the
// waiver rationale), so the suppression history is visible in the code
// scanning UI rather than silently dropped.

const (
	sarifSchemaURI = "https://docs.oasis-open.org/sarif/sarif/v2.1.0/errata01/os/schemas/sarif-schema-2.1.0.json"
	sarifVersion   = "2.1.0"
)

// ruleDescriptions is the driver.rules metadata, one entry per rule id.
var ruleDescriptions = map[string]string{
	RuleBranch:    "control flow depends on a secret-tainted value",
	RuleIndex:     "memory address (index or slice bound) depends on a secret-tainted value",
	RuleLoop:      "loop trip count depends on a secret-tainted value",
	RuleCall:      "secret-tainted value escapes into an unauditable callee",
	RuleDeclass:   "secret-tainted value declassified through an unannotated return",
	RuleDirective: "malformed secemb directive or stale //lint:allow waiver",
	RuleAlloc:     "allocation size depends on a secret-tainted value",
	RuleMapKey:    "map operation keyed by a secret-tainted value",
	RuleChan:      "secret-tainted value crosses a channel or goroutine boundary",
	RuleShift:     "shift amount depends on a secret-tainted value",
	RuleDiv:       "integer division of a secret-tainted value by a non-constant divisor",
	RuleDrift:     "exported function receives secret taint but carries no secemb:secret directive",
	RuleShadow:    "shadowed variable whose outer binding is used after the inner scope",
}

type sarifLog struct {
	Schema  string     `json:"$schema"`
	Version string     `json:"version"`
	Runs    []sarifRun `json:"runs"`
}

type sarifRun struct {
	Tool    sarifTool     `json:"tool"`
	Results []sarifResult `json:"results"`
}

type sarifTool struct {
	Driver sarifDriver `json:"driver"`
}

type sarifDriver struct {
	Name           string      `json:"name"`
	InformationURI string      `json:"informationUri,omitempty"`
	Rules          []sarifRule `json:"rules"`
}

type sarifRule struct {
	ID               string       `json:"id"`
	ShortDescription sarifMessage `json:"shortDescription"`
}

type sarifMessage struct {
	Text string `json:"text"`
}

type sarifResult struct {
	RuleID       string             `json:"ruleId"`
	RuleIndex    int                `json:"ruleIndex"`
	Level        string             `json:"level"`
	Message      sarifMessage       `json:"message"`
	Locations    []sarifLocation    `json:"locations"`
	Suppressions []sarifSuppression `json:"suppressions,omitempty"`
}

type sarifLocation struct {
	PhysicalLocation sarifPhysicalLocation `json:"physicalLocation"`
}

type sarifPhysicalLocation struct {
	ArtifactLocation sarifArtifactLocation `json:"artifactLocation"`
	Region           sarifRegion           `json:"region"`
}

type sarifArtifactLocation struct {
	URI       string `json:"uri"`
	URIBaseID string `json:"uriBaseId,omitempty"`
}

type sarifRegion struct {
	StartLine   int `json:"startLine"`
	StartColumn int `json:"startColumn,omitempty"`
}

type sarifSuppression struct {
	Kind          string `json:"kind"`
	Justification string `json:"justification,omitempty"`
}

// SARIF renders a run's diagnostics as a SARIF 2.1.0 log. Diagnostic
// paths should already be repository-relative (see cmd/obliviouslint);
// they are slash-normalized here for the artifactLocation URIs.
func SARIF(res *Result) ([]byte, error) {
	ruleIDs := map[string]bool{}
	for _, d := range res.Findings {
		ruleIDs[d.Rule] = true
	}
	for _, d := range res.Waived {
		ruleIDs[d.Rule] = true
	}
	ids := make([]string, 0, len(ruleIDs))
	for id := range ruleIDs {
		ids = append(ids, id)
	}
	sort.Strings(ids)

	ruleIndex := map[string]int{}
	rules := make([]sarifRule, 0, len(ids))
	for i, id := range ids {
		ruleIndex[id] = i
		desc := ruleDescriptions[id]
		if desc == "" {
			desc = id
		}
		rules = append(rules, sarifRule{ID: id, ShortDescription: sarifMessage{Text: desc}})
	}

	toResult := func(d Diagnostic) sarifResult {
		r := sarifResult{
			RuleID:    d.Rule,
			RuleIndex: ruleIndex[d.Rule],
			Level:     "error",
			Message:   sarifMessage{Text: d.Message},
			Locations: []sarifLocation{{
				PhysicalLocation: sarifPhysicalLocation{
					ArtifactLocation: sarifArtifactLocation{
						URI:       filepath.ToSlash(d.Pos.Filename),
						URIBaseID: "%SRCROOT%",
					},
					Region: sarifRegion{StartLine: d.Pos.Line, StartColumn: d.Pos.Column},
				},
			}},
		}
		if d.Waived {
			r.Suppressions = []sarifSuppression{{Kind: "inSource", Justification: d.Waiver}}
		}
		return r
	}

	results := make([]sarifResult, 0, len(res.Findings)+len(res.Waived))
	for _, d := range res.Findings {
		results = append(results, toResult(d))
	}
	for _, d := range res.Waived {
		results = append(results, toResult(d))
	}

	log := sarifLog{
		Schema:  sarifSchemaURI,
		Version: sarifVersion,
		Runs: []sarifRun{{
			Tool:    sarifTool{Driver: sarifDriver{Name: "obliviouslint", Rules: rules}},
			Results: results,
		}},
	}
	out, err := json.MarshalIndent(&log, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}

// ValidateSARIF structurally checks a byte slice against the SARIF 2.1.0
// shape GitHub code scanning requires: version 2.1.0, at least one run
// with tool.driver.name, and every result carrying a ruleId resolvable
// through ruleIndex, a message, and a physical location with a relative
// URI and a 1-based startLine. It is the offline stand-in for the JSON
// Schema (CI has no network), and the sarif tests run it over both
// synthetic and real reports.
func ValidateSARIF(data []byte) error {
	var log sarifLog
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&log); err != nil {
		return fmt.Errorf("sarif: not decodable into the 2.1.0 shape: %w", err)
	}
	if log.Version != sarifVersion {
		return fmt.Errorf("sarif: version = %q, want %q", log.Version, sarifVersion)
	}
	if log.Schema == "" {
		return fmt.Errorf("sarif: missing $schema")
	}
	if len(log.Runs) == 0 {
		return fmt.Errorf("sarif: no runs")
	}
	for ri, run := range log.Runs {
		if run.Tool.Driver.Name == "" {
			return fmt.Errorf("sarif: runs[%d]: missing tool.driver.name", ri)
		}
		for i, res := range run.Results {
			if res.RuleID == "" {
				return fmt.Errorf("sarif: runs[%d].results[%d]: missing ruleId", ri, i)
			}
			if res.RuleIndex < 0 || res.RuleIndex >= len(run.Tool.Driver.Rules) {
				return fmt.Errorf("sarif: runs[%d].results[%d]: ruleIndex %d out of range", ri, i, res.RuleIndex)
			}
			if got := run.Tool.Driver.Rules[res.RuleIndex].ID; got != res.RuleID {
				return fmt.Errorf("sarif: runs[%d].results[%d]: ruleIndex resolves to %q, want %q", ri, i, got, res.RuleID)
			}
			if res.Message.Text == "" {
				return fmt.Errorf("sarif: runs[%d].results[%d]: empty message", ri, i)
			}
			switch res.Level {
			case "none", "note", "warning", "error":
			default:
				return fmt.Errorf("sarif: runs[%d].results[%d]: invalid level %q", ri, i, res.Level)
			}
			if len(res.Locations) == 0 {
				return fmt.Errorf("sarif: runs[%d].results[%d]: no locations", ri, i)
			}
			for _, loc := range res.Locations {
				uri := loc.PhysicalLocation.ArtifactLocation.URI
				if uri == "" {
					return fmt.Errorf("sarif: runs[%d].results[%d]: empty artifact uri", ri, i)
				}
				if filepath.IsAbs(uri) {
					return fmt.Errorf("sarif: runs[%d].results[%d]: absolute uri %q (code scanning needs repo-relative paths)", ri, i, uri)
				}
				if loc.PhysicalLocation.Region.StartLine < 1 {
					return fmt.Errorf("sarif: runs[%d].results[%d]: startLine %d < 1", ri, i, loc.PhysicalLocation.Region.StartLine)
				}
			}
			for _, sup := range res.Suppressions {
				if sup.Kind != "inSource" && sup.Kind != "external" {
					return fmt.Errorf("sarif: runs[%d].results[%d]: invalid suppression kind %q", ri, i, sup.Kind)
				}
			}
		}
	}
	return nil
}
