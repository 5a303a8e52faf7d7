package bench

import (
	"fmt"

	"aamgo/internal/aam"
	"aamgo/internal/algo"
	"aamgo/internal/exec"
	"aamgo/internal/graph"
	"aamgo/internal/run"
	"aamgo/internal/sim"
	"aamgo/internal/stats"
	"aamgo/internal/vtime"
)

// machine constructs a simulated machine (the harness's unit is virtual
// time) for the given profile. The profile is copied so experiments can
// tweak it without aliasing.
func machine(prof exec.MachineProfile, nodes, threads, memWords int,
	handlers []exec.HandlerFunc, seed int64) exec.Machine {
	p := prof
	return sim.New(exec.Config{
		Nodes:          nodes,
		ThreadsPerNode: threads,
		MemWords:       memWords,
		Profile:        &p,
		Handlers:       handlers,
		Seed:           seed,
	})
}

// bfsRun is one measured BFS execution.
type bfsRun struct {
	Elapsed vtime.Time
	Stats   stats.Total
	Levels  []vtime.Time
	Parents []int64
}

// runBFS executes a BFS and returns the measurement.
func runBFS(prof exec.MachineProfile, g *graph.Graph,
	nodes, threads int, cfg algo.BFSConfig, src int, seed int64) bfsRun {
	b := algo.NewBFS(g, nodes, cfg)
	m := aam.NewMachine(b, run.Sim, nodes, threads, &prof, seed)
	res := m.Run(b.Body(src))
	return bfsRun{
		Elapsed: res.Elapsed,
		Stats:   res.Stats,
		Levels:  b.LevelTimes,
		Parents: b.Parents(m),
	}
}

// aamBFSConfig builds the standard AAM BFS configuration for mechanism HTM
// with coarsening factor m and the named HTM variant resolved against prof.
func aamBFSConfig(prof *exec.MachineProfile, variant string, m int) algo.BFSConfig {
	return algo.BFSConfig{
		Mode: algo.BFSAAM,
		Engine: aam.Config{
			M:         m,
			Mechanism: aam.MechHTM,
			HTM:       prof.HTMVariant(variant),
		},
		VisitedCheck: true,
	}
}

// g500Config is the Graph500 atomics baseline configuration.
func g500Config() algo.BFSConfig {
	return algo.BFSConfig{Mode: algo.BFSGraph500, VisitedCheck: true}
}

// fmtMS formats virtual time as milliseconds with 3 significant decimals.
func fmtMS(t vtime.Time) string { return fmt.Sprintf("%.3f", t.Millis()) }

// fmtUS formats virtual time as microseconds.
func fmtUS(t vtime.Time) string { return fmt.Sprintf("%.3f", t.Micros()) }

// fmtS formats virtual time as seconds.
func fmtS(t vtime.Time) string { return fmt.Sprintf("%.4f", t.Seconds()) }

// speedup formats base/x as a speedup factor.
func speedup(base, x vtime.Time) string {
	if x == 0 {
		return "inf"
	}
	return fmt.Sprintf("%.2f", float64(base)/float64(x))
}

// speedupF is the numeric form of speedup.
func speedupF(base, x vtime.Time) float64 {
	if x == 0 {
		return 0
	}
	return float64(base) / float64(x)
}

// threadsFor clamps the requested thread counts to the profile's maximum.
func threadsFor(prof exec.MachineProfile, want []int) []int {
	var out []int
	for _, t := range want {
		if t <= prof.MaxThreads {
			out = append(out, t)
		}
	}
	return out
}

// minIdx returns the index of the smallest value.
func minIdx(xs []float64) int {
	best := 0
	for i, x := range xs {
		if x < xs[best] {
			best = i
		}
	}
	return best
}

// geomSeq returns {start, start*2, ..., <=end}.
func geomSeq(start, end int) []int {
	var out []int
	for v := start; v <= end; v *= 2 {
		out = append(out, v)
	}
	return out
}

// itoa formats an int.
func itoa(i int) string { return fmt.Sprintf("%d", i) }

// utoa formats a uint64.
func utoa(u uint64) string { return fmt.Sprintf("%d", u) }

// ftoa formats a float with 3 decimals.
func ftoa(f float64) string { return fmt.Sprintf("%.3f", f) }
