package main

import (
	"context"
	"errors"
	"math"
	"os"
	"os/exec"
	"strings"
	"testing"
	"time"
)

// runMainEnv, when set, makes the test binary run main on its arguments:
// how usageError sees the real exit status.
const runMainEnv = "AAM_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// usageError runs aam-serve on args, requires exit status 2 without a panic
// and returns what it printed.
func usageError(t *testing.T, args ...string) string {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, os.Args[0], args...)
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 || strings.Contains(string(out), "panic: ") {
		t.Errorf("%v: %v, want exit status 2 and no panic\n%s", args, err, out)
	}
	return string(out)
}

// TestGeneratorFlagsAreUsageErrors: a -scale or -ef no generator takes ends
// aam-serve with a worded usage error and status 2 before anything shifts by
// it, allocates by it or hands it to the library — not with a panic. So does
// -backend, the old name of -runtime: it is an unknown flag.
func TestGeneratorFlagsAreUsageErrors(t *testing.T) {
	for _, args := range [][]string{{"-gen", "kron", "-scale", "-1"}, {"-scale", "31"}, {"-gen", "er", "-scale", "64"}, {"-ef", "-1"}, {"-gen", "web", "-scale", "5", "-ef", "-3"},
		{"-gen", "kron", "-scale", "20", "-ef", "17592186044416"}} {
		if out, bad := usageError(t, args...), args[len(args)-2]; !strings.Contains(out, "aam-serve: "+bad) {
			t.Errorf("%v: want a message naming %s, got\n%s", args, bad, out)
		}
	}
	if out := usageError(t, "-backend", "sim"); !strings.Contains(out, "flag provided but not defined: -backend") {
		t.Errorf("-backend sim: want an unknown-flag error, got\n%s", out)
	}
	// The Kronecker edge-factor bound is kron's and web's: a road grid takes
	// no edge factor.
	for _, ok := range []struct {
		gen       string
		scale, ef int
	}{{"kron", 0, 0}, {"kron", 30, 0}, {"web", 10, 8}, {"kron", 20, 219902325555}, {"kron", 0, math.MaxInt}, {"road", 20, 1 << 44}} {
		if err := checkGenFlags(ok.gen, ok.scale, ok.ef); err != nil {
			t.Errorf("-gen %s, scale %d, edge factor %d rejected: %v", ok.gen, ok.scale, ok.ef, err)
		}
	}
}
