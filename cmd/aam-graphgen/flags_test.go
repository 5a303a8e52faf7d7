package main

import (
	"context"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
	"time"
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

// TestGeneratorFlagsAreUsageErrors: a -scale, -deg or -n no generator takes ends
// aam-graphgen with a worded usage error and status 2 before anything shifts by
// it, allocates by it or hands it to the library — not with a panic, and not
// with an edgeless graph (2^20·2^44 edges wrap to none).
func TestGeneratorFlagsAreUsageErrors(t *testing.T) {
	for _, args := range [][]string{{"-kind", "kron", "-scale", "-1"}, {"-kind", "web", "-scale", "32"}, {"-deg", "-1"},
		{"-kind", "er", "-n", "-5"}, {"-kind", "road", "-n", "3000000000"}, {"-kind", "road", "-n", "2147483647"},
		{"-kind", "kron", "-scale", "20", "-deg", "17592186044416"}, {"-kind", "web", "-scale", "20", "-deg", "8796093022209"}} {
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
		cmd := exec.CommandContext(ctx, os.Args[0], args...)
		cmd.Env = append(os.Environ(), runMainEnv+"=1")
		out, err := cmd.CombinedOutput()
		cancel()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("%v: %v, want exit status 2\n%s", args, err, out)
		}
		if bad := args[len(args)-2]; strings.Contains(string(out), "panic") || !strings.Contains(string(out), "aam-graphgen: "+bad) {
			t.Errorf("%v: want a message naming %s and no panic, got\n%s", args, bad, out)
		}
	}
}
