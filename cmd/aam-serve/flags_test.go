package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strings"
	"syscall"
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
// -backend, the old name of -runtime: it is an unknown flag. So does a
// -runtime no machine is built on, before a graph loads or a port opens.
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
	if out := usageError(t, "-runtime", "gpu"); !strings.Contains(out, `aam-serve: -runtime: unknown runtime "gpu"`) {
		t.Errorf("-runtime gpu: want a message naming -runtime, got\n%s", out)
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

// TestCacheBytesFlag: the daemon serves with the query cache by default and
// without it at -cache-bytes 0 (its /stats then carries no "cache" object);
// a negative bound is a usage error.
func TestCacheBytesFlag(t *testing.T) {
	if out := usageError(t, "-cache-bytes", "-1"); !strings.Contains(out, "aam-serve: -cache-bytes -1") {
		t.Errorf("-cache-bytes -1: want a message naming -cache-bytes, got\n%s", out)
	}
	for _, tc := range []struct {
		args  []string
		cache bool
	}{{nil, true}, {[]string{"-cache-bytes", "0"}, false}} {
		if _, cache := serveStats(t, tc.args...)["cache"]; cache != tc.cache {
			t.Errorf("%v: /stats has a cache object: %t, want %t", tc.args, cache, tc.cache)
		}
	}
}

// serveStats starts aam-serve on args over a small generated graph, reads
// its /stats once it answers and stops it with SIGTERM.
func serveStats(t *testing.T, args ...string) map[string]json.RawMessage {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, os.Args[0], append(args, "-addr", addr, "-gen", "kron", "-scale", "4")...)
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &out
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		cmd.Process.Signal(syscall.SIGTERM)
		if err := cmd.Wait(); err != nil {
			t.Errorf("%v: %v\n%s", args, err, out.String())
		}
	}()
	var stats map[string]json.RawMessage
	for ctx.Err() == nil {
		resp, err := http.Get("http://" + addr + "/stats")
		if err != nil {
			time.Sleep(20 * time.Millisecond)
			continue
		}
		err = json.NewDecoder(resp.Body).Decode(&stats)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("%v: /stats: %v", args, err)
		}
		return stats
	}
	t.Fatalf("%v: the daemon never answered on %s\n%s", args, addr, out.String())
	return nil
}
