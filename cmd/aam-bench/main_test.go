package main

import (
	"context"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"aamgo/internal/bench"
)

// runMainEnv, when set, makes the test binary run main on its arguments:
// how the tests see the real exit status and the files a run leaves.
const runMainEnv = "AAM_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// aamBench runs aam-bench on args and returns its output and exit status.
func aamBench(t *testing.T, args ...string) (string, int) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	cmd := exec.CommandContext(ctx, os.Args[0], args...)
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	if err != nil && !errors.As(err, &exit) {
		t.Fatalf("%v: %v\n%s", args, err, out)
	}
	return string(out), cmd.ProcessState.ExitCode()
}

// TestUnknownIDIsAUsageError: an id -run does not know ends the command
// with status 2 before any experiment runs or any file is created.
func TestUnknownIDIsAUsageError(t *testing.T) {
	dir := t.TempDir()
	cpu, ci := filepath.Join(dir, "cpu.out"), filepath.Join(dir, "ci.json")
	out, status := aamBench(t, "-run", "fig1,nosuch", "-cpuprofile", cpu, "-json", ci)
	if status != 2 || !strings.Contains(out, `unknown experiment "nosuch"`) {
		t.Errorf("exit status %d, want 2 and a message naming the id:\n%s", status, out)
	}
	if strings.Contains(out, "==== fig1") {
		t.Errorf("fig1 ran before the id list was checked:\n%s", out)
	}
	for _, f := range []string{cpu, ci} {
		if _, err := os.Stat(f); err == nil {
			t.Errorf("a usage error left %s behind", f)
		}
	}
}

// TestFailedRunKeepsProfilesAndJSON: when an experiment fails part-way
// through the list (here fig2's CSV files cannot be created) the command
// exits 1 with both profiles written and the JSON holding what finished.
func TestFailedRunKeepsProfilesAndJSON(t *testing.T) {
	dir := t.TempDir()
	csv := filepath.Join(dir, "csv")
	if _, err := bench.RunOne("fig2", bench.Options{Scale: -4, CSVDir: csv}); err != nil {
		t.Fatal(err)
	}
	files, _ := filepath.Glob(filepath.Join(csv, "fig2_*.csv"))
	if len(files) == 0 {
		t.Fatal("fig2 wrote no CSV to stand in the way of")
	}
	for _, f := range files { // a directory where each file should go
		if err := os.Remove(f); err != nil {
			t.Fatal(err)
		}
		if err := os.Mkdir(f, 0o755); err != nil {
			t.Fatal(err)
		}
	}

	cpu, mem, ci := filepath.Join(dir, "cpu.out"), filepath.Join(dir, "mem.out"), filepath.Join(dir, "ci.json")
	out, status := aamBench(t, "-run", "fig1,fig2", "-scale", "-4", "-csv", csv, "-cpuprofile", cpu, "-memprofile", mem, "-json", ci)
	if status != 1 {
		t.Errorf("exit status %d, want 1:\n%s", status, out)
	}
	for _, f := range []string{cpu, mem} {
		if st, err := os.Stat(f); err != nil || st.Size() == 0 {
			t.Errorf("profile %s missing or empty after a failed run (%v)", filepath.Base(f), err)
		}
	}
	rep, err := bench.ReadCI(ci)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := rep.Experiments["fig1"]; !ok || len(rep.Experiments) != 1 {
		t.Errorf("ci.json holds %v, want fig1 alone (it finished; fig2 did not)", rep.Experiments)
	}
}
