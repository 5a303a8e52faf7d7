package bench

import (
	"encoding/json"
	"fmt"
	"os"
)

// CISchema versions the -json output; bump on incompatible change.
const CISchema = 1

// CIExperiment is one experiment's machine-readable outcome. Nothing in it
// depends on the host: two runs of one scale and seed write the same file.
type CIExperiment struct {
	ChecksPassed int                `json:"checks_passed"`
	ChecksFailed int                `json:"checks_failed"`
	Metrics      map[string]float64 `json:"metrics,omitempty"`
}

// CIReport is the aam-bench -json file format, consumed by aam-benchdiff
// for the bench-smoke regression gate.
type CIReport struct {
	Schema      int                     `json:"schema"`
	Scale       int                     `json:"scale"`
	Seed        int64                   `json:"seed"`
	Experiments map[string]CIExperiment `json:"experiments"`
}

// Add records one rendered report into the CI file.
func (c *CIReport) Add(rep *Report) {
	if c.Experiments == nil {
		c.Experiments = map[string]CIExperiment{}
	}
	failed := len(rep.FailedChecks())
	c.Experiments[rep.ID] = CIExperiment{
		ChecksPassed: len(rep.Checks) - failed,
		ChecksFailed: failed,
		Metrics:      rep.Metrics,
	}
}

// WriteCI writes the report as indented JSON.
func WriteCI(path string, c CIReport) error {
	c.Schema = CISchema
	b, err := json.MarshalIndent(c, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// ReadCI parses a -json file and validates the schema.
func ReadCI(path string) (CIReport, error) {
	var c CIReport
	b, err := os.ReadFile(path)
	if err != nil {
		return c, err
	}
	if err := json.Unmarshal(b, &c); err != nil {
		return c, fmt.Errorf("%s: %v", path, err)
	}
	if c.Schema != CISchema {
		return c, fmt.Errorf("%s: schema %d, want %d", path, c.Schema, CISchema)
	}
	return c, nil
}
