package bench

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/*.golden from the experiments' current reports")

// TestMessagePathGolden holds the rendered reports of four message-heavy
// simulator experiments to testdata/<id>.golden: remote CAS and its thread
// scaling on BG/Q, the ownership protocol, and distributed PageRank. Every
// number in them passes through the simulator's inboxes and ready queue, so
// a change of delivery or resume order shows here as a diff.
func TestMessagePathGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs four simulator experiments")
	}
	// Scales keep each run under two seconds on a 2-vCPU host.
	cases := []struct {
		id    string
		scale int
	}{
		{"fig5c-remote-cas-bgq", 0},
		{"fig5d-scale-cas-bgq", 0},
		{"fig5i-ownership", -1},
		{"fig7c-pr-nodes", -2},
	}
	for _, c := range cases {
		var out bytes.Buffer
		if _, err := RunOne(c.id, Options{Scale: c.scale, Seed: 42, Out: &out}); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join("testdata", c.id+".golden")
		if *updateGolden {
			if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out.Bytes(), want) {
			t.Errorf("%s at scale %d: report differs from %s (rerun with -update and read the diff)\n%s",
				c.id, c.scale, path, out.Bytes())
		}
	}
}
