package wal

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"testing"

	"aamgo/internal/dyn"
	"aamgo/internal/graph"
)

// Kill-and-recover harness: the parent re-execs this test binary as a
// serving child (gated by killEnv), the child applies the deterministic
// stream under -durability batch and prints "ACK <epoch>" only after each
// Apply returns — i.e. after the group fsync — and the parent SIGKILLs it
// mid-write-storm. Recovery must then reproduce a graph bit-identical to
// the mutation-journal oracle for every acknowledged batch.

const (
	killEnv      = "AAM_WAL_KILLRECOVER_DIR"
	killPerBatch = 12
	killMaxBatch = 100000
)

func killBase() (*dyn.Graph, error) {
	return dyn.New(graph.Community(512, 16, 4, 0.05, 11))
}

func killBatch(i, n int) []dyn.Mutation { return testBatch(i, n, killPerBatch) }

func killOpts(dir string) Options {
	return Options{
		Dir:             dir,
		Mode:            ModeBatch,
		CheckpointEvery: 25, // exercise snapshot+tail recovery under fire
	}
}

// TestKillRecoverChild is the helper process; it is skipped unless the
// parent set killEnv.
func TestKillRecoverChild(t *testing.T) {
	dir := os.Getenv(killEnv)
	if dir == "" {
		t.Skip("helper process for TestKillRecover")
	}
	g, _, err := Open(killOpts(dir), killBase)
	if err != nil {
		fmt.Printf("CHILDERR open: %v\n", err)
		os.Exit(1)
	}
	n := g.N()
	out := bufio.NewWriter(os.Stdout)
	for i := 1; i <= killMaxBatch; i++ {
		if _, err := g.Apply(killBatch(i, n), testTx); err != nil {
			fmt.Printf("CHILDERR apply %d: %v\n", i, err)
			os.Exit(1)
		}
		// The ack line must reach the parent before the next batch: an
		// acked epoch is durable, so the parent may hold us to it.
		fmt.Fprintf(out, "ACK %d\n", i)
		out.Flush()
	}
}

func TestKillRecover(t *testing.T) {
	const killAfter = 30
	dir := t.TempDir()

	cmd := exec.Command(os.Args[0], "-test.run", "^TestKillRecoverChild$", "-test.v")
	cmd.Env = append(os.Environ(), killEnv+"="+dir)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}

	// Read acks; SIGKILL mid-storm once enough batches are durable. Keep
	// draining afterwards — acks already in the pipe count.
	lastAck := 0
	killed := false
	sc := bufio.NewScanner(stdout)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "CHILDERR") {
			t.Fatalf("child failed: %s", line)
		}
		if !strings.HasPrefix(line, "ACK ") {
			continue
		}
		epoch, err := strconv.Atoi(strings.TrimPrefix(line, "ACK "))
		if err != nil {
			t.Fatalf("bad ack line %q", line)
		}
		lastAck = epoch
		if !killed && lastAck >= killAfter {
			if err := cmd.Process.Kill(); err != nil {
				t.Fatal(err)
			}
			killed = true
		}
	}
	cmd.Wait() // exits with the kill signal; the acks are the contract
	if !killed {
		t.Fatalf("child finished (last ack %d) before the kill fired", lastAck)
	}
	if lastAck < killAfter {
		t.Fatalf("only %d acks before EOF", lastAck)
	}

	// Recover in-process and hold the log to every acknowledged batch.
	g, l, err := Open(killOpts(dir), killBase)
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	defer l.Close()
	recovered := int(g.Epoch())
	if recovered < lastAck {
		t.Fatalf("lost acknowledged batches: recovered epoch %d < last ack %d", recovered, lastAck)
	}

	// The mutation-journal oracle: replay the same deterministic stream
	// on a fresh base up to the recovered epoch.
	og, err := killBase()
	if err != nil {
		t.Fatal(err)
	}
	n := og.N()
	for i := 1; i <= recovered; i++ {
		if _, err := og.Replay(killBatch(i, n)); err != nil {
			t.Fatalf("oracle batch %d: %v", i, err)
		}
	}
	requireEqualGraphs(t, og, g)
	t.Logf("killed after ack %d, recovered epoch %d (replayed %d, snapshot %d, truncated %d records)",
		lastAck, recovered, l.Recovery().ReplayedBatches, l.Recovery().SnapshotEpoch, l.Recovery().TruncatedRecords)
}
