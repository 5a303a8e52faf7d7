// Package bench is the experiment harness that regenerates every table and
// figure of the paper's evaluation (§5–§6). Each experiment is registered
// under the paper's figure/table id, runs the relevant workload on the
// simulated machines, and emits the same rows/series the paper reports,
// plus machine-checkable "shape" assertions (who wins, where minima and
// crossovers fall).
//
// Default workload sizes are reduced so the whole suite runs in minutes on
// one core; Options.Scale raises them toward the paper's sizes.
package bench

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Options control one experiment invocation.
type Options struct {
	// Scale adds that many powers of two to the default (reduced) problem
	// sizes; 7 approximates the paper's sizes. Negative values shrink
	// further (used by unit tests).
	Scale int
	// Out receives the human-readable report; nil discards it.
	Out io.Writer
	// CSVDir, when non-empty, receives one CSV file per emitted table.
	CSVDir string
	// Seed perturbs workload generation (default 42).
	Seed int64
}

func (o *Options) normalize() {
	if o.Out == nil {
		o.Out = io.Discard
	}
	if o.Seed == 0 {
		o.Seed = 42
	}
}

// shift returns base+Scale clamped to at least min.
func (o Options) shift(base, min int) int {
	s := base + o.Scale
	if s < min {
		s = min
	}
	return s
}

// Check is one machine-verified qualitative claim from the paper.
type Check struct {
	Name   string
	OK     bool
	Detail string
}

// Table is one emitted table (or one figure's data series).
type Table struct {
	Name string
	Cols []string
	Rows [][]string
}

// AddRow appends a row of already-formatted cells.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// Report is the outcome of one experiment.
type Report struct {
	ID     string
	Title  string
	Tables []*Table
	Notes  []string
	Checks []Check
	// Metrics are machine-readable scalar outcomes keyed by dotted names
	// (aam-bench -json dumps them; the bench-smoke CI gate compares them
	// across runs). Each is a count or a virtual time that repeats exactly
	// for a scale and seed, and gates for equality: never record a
	// wall-clock reading here (those belong to benchmark/).
	Metrics map[string]float64
}

// Metricf records one machine-readable metric.
func (r *Report) Metricf(name string, v float64) {
	if r.Metrics == nil {
		r.Metrics = map[string]float64{}
	}
	r.Metrics[name] = v
}

// NewTable creates, registers and returns a table.
func (r *Report) NewTable(name string, cols ...string) *Table {
	t := &Table{Name: name, Cols: cols}
	r.Tables = append(r.Tables, t)
	return t
}

// Notef records a free-form observation.
func (r *Report) Notef(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// Checkf records a shape assertion.
func (r *Report) Checkf(ok bool, name, format string, args ...any) {
	r.Checks = append(r.Checks, Check{Name: name, OK: ok, Detail: fmt.Sprintf(format, args...)})
}

// FailedChecks returns the subset of failed checks.
func (r *Report) FailedChecks() []Check {
	var out []Check
	for _, c := range r.Checks {
		if !c.OK {
			out = append(out, c)
		}
	}
	return out
}

// Experiment is one registered table/figure reproduction.
type Experiment struct {
	ID    string // paper id: "fig4-bgq", "tab1", ...
	Title string
	// Paper summarizes what the original shows and what shape we expect.
	Paper string
	Run   func(o Options) *Report
}

var registry []Experiment

// register is called from the per-figure files' init functions.
func register(e Experiment) { registry = append(registry, e) }

// Experiments lists all registered experiments in registration order.
func Experiments() []Experiment {
	out := make([]Experiment, len(registry))
	copy(out, registry)
	return out
}

// ByID finds an experiment.
func ByID(id string) (Experiment, bool) {
	for _, e := range registry {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// IDs returns the sorted experiment ids.
func IDs() []string {
	ids := make([]string, 0, len(registry))
	for _, e := range registry {
		ids = append(ids, e.ID)
	}
	sort.Strings(ids)
	return ids
}

// RunOne executes experiment id with the given options and renders it.
func RunOne(id string, o Options) (*Report, error) {
	e, ok := ByID(id)
	if !ok {
		return nil, fmt.Errorf("bench: unknown experiment %q (known: %s)", id, strings.Join(IDs(), ", "))
	}
	o.normalize()
	rep := e.Run(o)
	rep.ID = e.ID
	if rep.Title == "" {
		rep.Title = e.Title
	}
	if err := Render(o.Out, rep); err != nil {
		return nil, err
	}
	if o.CSVDir != "" {
		if err := WriteCSVs(o.CSVDir, rep); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// Render writes the report as aligned text.
func Render(w io.Writer, r *Report) error {
	if w == nil || w == io.Discard {
		return nil
	}
	var b strings.Builder
	fmt.Fprintf(&b, "==== %s — %s ====\n", r.ID, r.Title)
	for _, t := range r.Tables {
		fmt.Fprintf(&b, "\n-- %s --\n", t.Name)
		widths := make([]int, len(t.Cols))
		for i, c := range t.Cols {
			widths[i] = len(c)
		}
		for _, row := range t.Rows {
			for i, c := range row {
				if i < len(widths) && len(c) > widths[i] {
					widths[i] = len(c)
				}
			}
		}
		writeRow := func(cells []string) {
			for i, c := range cells {
				if i > 0 {
					b.WriteString("  ")
				}
				fmt.Fprintf(&b, "%-*s", widths[i], c)
			}
			b.WriteByte('\n')
		}
		writeRow(t.Cols)
		for i, wd := range widths {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(strings.Repeat("-", wd))
		}
		b.WriteByte('\n')
		for _, row := range t.Rows {
			writeRow(row)
		}
	}
	if len(r.Notes) > 0 {
		b.WriteString("\nnotes:\n")
		for _, n := range r.Notes {
			fmt.Fprintf(&b, "  * %s\n", n)
		}
	}
	if len(r.Metrics) > 0 {
		b.WriteString("\nmetrics:\n")
		names := make([]string, 0, len(r.Metrics))
		for n := range r.Metrics {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Fprintf(&b, "  %-36s %.4g\n", n, r.Metrics[n])
		}
	}
	if len(r.Checks) > 0 {
		b.WriteString("\nshape checks:\n")
		for _, c := range r.Checks {
			mark := "PASS"
			if !c.OK {
				mark = "FAIL"
			}
			fmt.Fprintf(&b, "  [%s] %-28s %s\n", mark, c.Name, c.Detail)
		}
	}
	b.WriteByte('\n')
	_, err := io.WriteString(w, b.String())
	return err
}

// WriteCSVs dumps each table as <dir>/<id>_<table>.csv.
func WriteCSVs(dir string, r *Report) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, t := range r.Tables {
		name := fmt.Sprintf("%s_%s.csv", r.ID, sanitize(t.Name))
		f, err := os.Create(filepath.Join(dir, name))
		if err != nil {
			return err
		}
		fmt.Fprintln(f, strings.Join(t.Cols, ","))
		for _, row := range t.Rows {
			fmt.Fprintln(f, strings.Join(row, ","))
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	return nil
}

func sanitize(s string) string {
	var b strings.Builder
	for _, r := range strings.ToLower(s) {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9':
			b.WriteRune(r)
		default:
			b.WriteRune('-')
		}
	}
	return strings.Trim(b.String(), "-")
}
