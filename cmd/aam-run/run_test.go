package main

import (
	"context"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
	"time"

	"aamgo/internal/query"
)

// runMain runs aam-run on args and returns what it printed and its exit
// status; a panic fails the test whatever the status.
func runMain(t *testing.T, args ...string) (string, int) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, os.Args[0], args...)
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	out, err := cmd.CombinedOutput()
	status := 0
	var exit *exec.ExitError
	if errors.As(err, &exit) {
		status = exit.ExitCode()
	} else if err != nil {
		t.Fatalf("%v: %v", args, err)
	}
	if strings.Contains(string(out), "panic: ") {
		t.Errorf("%v panics:\n%s", args, out)
	}
	return string(out), status
}

// TestEveryAlgoRuns: every algorithm the usage line advertises runs on a
// generated graph on every engine it declares and prints its own line; an
// engine it lacks is exit status 1 with the descriptor's error, and so are
// an endpoint outside the graph and -mech atomic on the aam cells whose
// operators have no atomic body.
func TestEveryAlgoRuns(t *testing.T) {
	runs := func(algo string, args ...string) {
		t.Helper()
		args = append([]string{"-algo", algo, "-scale", "6"}, args...)
		out, status := runMain(t, args...)
		if status != 0 || !strings.Contains("\n"+out, "\n"+algo+":") {
			t.Errorf("%v: exit status %d, want 0 and a line starting %q\n%s", args, status, algo+":", out)
		}
	}
	for _, d := range query.Registry {
		for _, eng := range []string{query.EngineAAM, query.EngineShard, query.EngineGBLAS} {
			if d.Engines[eng] != nil {
				runs(d.Name, "-engine", eng)
				continue
			}
			out, status := runMain(t, "-algo", d.Name, "-scale", "6", "-engine", eng)
			if want := d.NotImplemented(eng, d.Title).Error(); status != 1 || !strings.Contains(out, want) {
				t.Errorf("%s on %s: exit status %d, want 1 and %q\n%s", d.Name, eng, status, want, out)
			}
		}
	}
	runs("stconn")
	runs("stconn", "-dst", "1")
	runs("maxflow", "-dst", "1")
	for _, algo := range []string{"stconn", "maxflow"} {
		out, status := runMain(t, "-algo", algo, "-scale", "6", "-dst", "99999")
		if status != 1 || !strings.Contains(out, "99999 invalid for 64 vertices") {
			t.Errorf("%s -dst 99999: exit status %d, want 1 and a worded range error\n%s", algo, status, out)
		}
	}
	for _, algo := range []string{"mst", "coloring"} {
		out, status := runMain(t, "-algo", algo, "-scale", "6", "-mech", "atomic")
		if status != 1 || !strings.Contains(out, "aam-run: mech atomic does not apply to the aam "+algo) {
			t.Errorf("%s -mech atomic: exit status %d, want 1 and a worded error\n%s", algo, status, out)
		}
	}
}

// TestAlgoAndMechAreCheckedBeforeTheGraph: a misspelt -algo or -mech fails
// without generating anything (no graph: line), and a weighted algorithm
// runs over the very graph the same flags give an unweighted one.
func TestAlgoAndMechAreCheckedBeforeTheGraph(t *testing.T) {
	for _, args := range [][]string{{"-algo", "bogus"}, {"-mech", "bogus"}} {
		out, status := runMain(t, append(args, "-scale", "6")...)
		if status != 1 || strings.Contains(out, "graph:") || !strings.Contains(out, "aam-run: unknown") {
			t.Errorf("%v: exit status %d, want 1 with a worded error and no graph: line\n%s", args, status, out)
		}
	}
	graphLine := func(algo string) string {
		out, _ := runMain(t, "-algo", algo, "-scale", "6")
		line, _, _ := strings.Cut(out, "\n")
		return line
	}
	if bfs, sssp := graphLine("bfs"), graphLine("sssp"); !strings.HasPrefix(bfs, "graph: ") || sssp != bfs {
		t.Errorf("-algo sssp runs on another graph than -algo bfs:\n%s\n%s", sssp, bfs)
	}
}
