// Package gblas is the public face of aamgo's GraphBLAS-style layer: graph
// algorithms expressed as masked sparse-vector × matrix products over a
// semiring, with every accumulation executed as an AAM activity. The
// paper's §7 positions AAM as a mechanism to "implement the GraphBLAS
// abstraction"; this package is that layer.
//
// Quick use:
//
//	g := aamgo.Kronecker(12, 16, 1)
//	b := gblas.NewBFS(g, 1, gblas.Engine{M: 16})
//	m, _ := gblas.Machine(b, "sim", "bgq", 1, 64, 1)
//	m.Run(b.Body(src))
//	levels := b.Levels(m)
//
// The package also re-exports the vectorized engine entry points
// (EngineBFS, EngineSSSP, EnginePageRank) — the same masked-SpMV loops the
// facade runs under aamgo.Config{Engine: aamgo.EngineGBLAS}, without an
// AAM machine in the path. Use those for raw throughput; use the System
// layer to study the algebra executing as AAM activities.
package gblas

import (
	"aamgo/internal/aam"
	"aamgo/internal/exec"
	"aamgo/internal/gblas"
	"aamgo/internal/graph"
	"aamgo/internal/run"
)

// Re-exported core types; see the documentation on the underlying
// declarations for semantics.
type (
	// Semiring is a commutative monoid with a combining operator over
	// word-encoded elements.
	Semiring = gblas.Semiring
	// BFS is the or-and level-synchronous breadth-first search.
	BFS = gblas.BFS
	// SSSP is the min-plus chaotic Bellman-Ford.
	SSSP = gblas.SSSP
	// PageRank is the plus-times power iteration.
	PageRank = gblas.PageRank
)

// Standard semirings.
var (
	// OrAnd is the Boolean BFS semiring ⟨∨, ∧, 0⟩.
	OrAnd = gblas.OrAnd
	// MinPlus is the tropical SSSP semiring ⟨min, +, ∞⟩.
	MinPlus = gblas.MinPlus
	// PlusTimes is the real PageRank semiring ⟨+, ×, 0⟩.
	PlusTimes = gblas.PlusTimes
)

// Element codecs for PlusTimes.
var (
	// F64 encodes a float64 as a plus-times element.
	F64 = gblas.F64
	// ToF64 decodes a plus-times element.
	ToF64 = gblas.ToF64
)

// Infinity is the min-plus unreachable distance.
const Infinity = gblas.Infinity

// Engine tunes the AAM engine running the accumulations.
type Engine struct {
	// M is the coarsening factor (operators per transaction), default 16.
	M int
	// C is the coalescing factor (operators per message), default 64.
	C int
	// Mechanism: aamgo.HTM (default), Atomic, Lock, Optimistic or
	// FlatCombining.
	Mechanism aam.Mechanism
}

func (e Engine) cfg() aam.Config {
	m, c := e.M, e.C
	if m <= 0 {
		m = 16
	}
	if c <= 0 {
		c = 64
	}
	return aam.Config{M: m, C: c, Mechanism: e.Mechanism}
}

// NewBFS prepares a BFS over g distributed across nodes.
func NewBFS(g *graph.Graph, nodes int, eng Engine) *BFS {
	return gblas.NewBFS(g, nodes, eng.cfg())
}

// NewSSSP prepares single-source shortest paths (g must carry weights).
func NewSSSP(g *graph.Graph, nodes int, eng Engine) *SSSP {
	return gblas.NewSSSP(g, nodes, eng.cfg())
}

// NewPageRank prepares the power iteration.
func NewPageRank(g *graph.Graph, nodes int, damping float64, iters int, eng Engine) *PageRank {
	return gblas.NewPageRank(g, nodes, damping, iters, eng.cfg())
}

// EngineResult reports one vectorized-engine execution (step counts split
// by traversal direction, wall time).
type EngineResult = gblas.EngineResult

// Vectorized engine entry points: the frontier as a sparse vector, one
// step as a masked SpMV/SpMSpV over the package's semirings, executed as
// tight loops over the CSR (no AAM machine). Results are bit-identical to
// the aam and shard engines' (see aamgo.Config.Engine).
var (
	// EngineBFS is the direction-optimizing or-and traversal.
	EngineBFS = gblas.EngineBFS
	// EngineSSSP is the min-plus SpMSpV Bellman iteration.
	EngineSSSP = gblas.EngineSSSP
	// EnginePageRank is the Q24.40 fixed-point power iteration.
	EnginePageRank = gblas.EnginePageRank
)

// Machine constructs a machine sized for the system sys on the named
// backend ("sim" or "native") and machine profile ("bgq", "has-c",
// "has-p").
func Machine(sys interface {
	Handlers([]exec.HandlerFunc) []exec.HandlerFunc
	MemWords() int
}, backend, machine string, nodes, threads int, seed int64) (exec.Machine, error) {
	prof, err := exec.ProfileByName(machine)
	if err != nil {
		return nil, err
	}
	if threads <= 0 {
		threads = prof.MaxThreads
	}
	return run.New(backend, exec.Config{
		Nodes: nodes, ThreadsPerNode: threads, MemWords: sys.MemWords(),
		Profile: &prof, Handlers: sys.Handlers(nil), Seed: seed,
	}), nil
}
