package aam

import (
	"aamgo/internal/exec"
	"aamgo/internal/graph"
	"aamgo/internal/run"
)

// Program is the base every AAM program embeds: the operator Runtime
// (Register and Handlers are promoted from it), the 1-D partition of the
// vertices over the nodes with its per-node block size L, and the
// program's lock base, the node-memory word its layout for T threads per
// node puts the engine's lock region at. What stays with the program is
// its operators, the layout itself and its SPMD body.
type Program struct {
	*Runtime
	Part graph.Partition
	L    int // per-node vertex block: Part.MaxLocal()

	lockBase func(T int) int
}

// NewProgram returns the base of a program over n vertices distributed
// over nodes whose lock region, for T threads per node, starts at word
// lockBase(T).
func NewProgram(n, nodes int, lockBase func(T int) int) Program {
	part := graph.NewPartition(n, nodes)
	return Program{Runtime: NewRuntime(), Part: part, L: part.MaxLocal(), lockBase: lockBase}
}

// MemWordsFor returns the node memory size for T threads per node: the
// layout up to its lock region, then the region itself.
func (p *Program) MemWordsFor(T int) int { return p.lockBase(T) + LockWords(p.L, T) }

// NewEngine creates this thread's engine for cfg, with cfg.Part and
// cfg.LockBase filled in from the program.
func (p *Program) NewEngine(ctx exec.Context, cfg Config) *Engine {
	cfg.Part = p.Part
	cfg.LockBase = p.lockBase(ctx.ThreadsPerNode())
	return NewEngine(p.Runtime, ctx, cfg)
}

// Word returns the word at base in global vertex v's slot of its owner's
// memory: how a program reads a per-vertex result back after the run.
func (p *Program) Word(m exec.Machine, base, v int) uint64 {
	return m.Mem(p.Part.Owner(v))[base+p.Part.Local(v)]
}

// Sizer is what a machine is built for: any program on the Program base.
type Sizer interface {
	MemWordsFor(T int) int
	Handlers(existing []exec.HandlerFunc) []exec.HandlerFunc
}

// NewMachine returns a fresh machine of the named runtime for p: nodes
// nodes of threads threads, each node holding p.MemWordsFor(threads)
// words, with p's handlers. It is the one place a program is sized.
func NewMachine(p Sizer, runtime string, nodes, threads int, prof *exec.MachineProfile, seed int64) exec.Machine {
	return run.New(runtime, exec.Config{
		Nodes: nodes, ThreadsPerNode: threads, MemWords: p.MemWordsFor(threads),
		Profile: prof, Handlers: p.Handlers(nil), Seed: seed,
	})
}
