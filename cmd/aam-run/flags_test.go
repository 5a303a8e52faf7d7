package main

import (
	"os"
	"strings"
	"testing"
)

// runMainEnv, when set, makes the test binary run main on its arguments:
// how TestGeneratorFlagsAreUsageErrors sees the real exit status.
const runMainEnv = "AAM_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// usageError runs aam-run on args, requires exit status 2 without a panic
// and returns what it printed.
func usageError(t *testing.T, args ...string) string {
	t.Helper()
	out, status := runMain(t, args...)
	if status != 2 {
		t.Errorf("%v: exit status %d, want 2\n%s", args, status, out)
	}
	return out
}

// TestGeneratorFlagsAreUsageErrors: a -scale, -deg or -n no generator takes ends
// aam-run with a worded usage error and status 2 before anything shifts by
// it, allocates by it or hands it to the library — not with a panic. So does
// -backend, the removed alias of -runtime: it is an unknown flag.
func TestGeneratorFlagsAreUsageErrors(t *testing.T) {
	for _, args := range [][]string{{"-graph", "kron", "-scale", "-1"}, {"-scale", "32"}, {"-algo", "cc", "-deg", "-1"},
		{"-graph", "er", "-n", "-5"}, {"-graph", "road", "-n", "3000000000"}, {"-graph", "road", "-n", "2147483647"},
		{"-graph", "kron", "-scale", "20", "-deg", "17592186044416"}} {
		if out, bad := usageError(t, args...), args[len(args)-2]; !strings.Contains(out, "aam-run: "+bad) {
			t.Errorf("%v: want a message naming %s, got\n%s", args, bad, out)
		}
	}
	if out := usageError(t, "-backend", "sim"); !strings.Contains(out, "flag provided but not defined: -backend") {
		t.Errorf("-backend sim: want an unknown-flag error, got\n%s", out)
	}
}
