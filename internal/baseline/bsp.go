package baseline

import (
	"aamgo/internal/exec"
	"aamgo/internal/graph"
	"aamgo/internal/vtime"
)

// The BSP model of a Hadoop-based engine in the style of HAMA: every
// superstep pays a framework overhead (job coordination, JVM
// serialization, Zookeeper sync) and every vertex-to-vertex message pays a
// per-message cost. The paper attributes HAMA's 10²–10⁴ slowdowns to
// exactly these two terms multiplied by the graph diameter (§6.1.2). Their
// values match the magnitude of the paper's HAMA 0.6.4 observations on
// commodity hardware.
const (
	bspSuperstepOverhead = 3 * vtime.Millisecond
	bspPerMessageCost    = 1500 * vtime.Nanosecond
)

// BSPBFS runs a Pregel/HAMA-style vertex-centric BFS: in superstep s every
// frontier vertex messages its neighbors; messaged unvisited vertices join
// the next frontier. Single node (the paper evaluates HAMA on the Haswell
// box); parallel threads, level-synchronized supersteps.
type BSPBFS struct {
	G *graph.Graph

	L int
	// Layout: parent+1 (0 = unvisited), two queues of one shared segment
	// each, their tails, and no parity word. The queue is not an
	// aam.Frontier: the baseline models HAMA without the AAM runtime, and it
	// empties the old queue's tail before the reduction, where Frontier.Flip
	// would come after it.
	parentBase int
	qBase      [2]int
	tailAddr   [2]int
}

// NewBSPBFS prepares a BSP BFS over g.
func NewBSPBFS(g *graph.Graph) *BSPBFS {
	b := &BSPBFS{G: g, L: g.N}
	b.parentBase = 0
	b.qBase[0] = g.N
	b.qBase[1] = 2 * g.N
	b.tailAddr[0] = 3 * g.N
	b.tailAddr[1] = 3*g.N + 1
	return b
}

// MemWords returns the node memory size the BSP BFS needs.
func (b *BSPBFS) MemWords() int { return 3*b.L + 64 }

// Body returns the SPMD body.
func (b *BSPBFS) Body(source int) func(ctx exec.Context) {
	return func(ctx exec.Context) { b.run(ctx, source) }
}

func (b *BSPBFS) run(ctx exec.Context, source int) {
	T := ctx.ThreadsPerNode()
	lid := ctx.LocalID()

	if lid == 0 {
		ctx.Store(b.parentBase+source, uint64(source)+1)
		ctx.Store(b.qBase[0], uint64(source))
		ctx.Store(b.tailAddr[0], 1)
		ctx.Store(b.tailAddr[1], 0)
	}
	ctx.Barrier()

	for step := 0; ; step++ {
		// Superstep entry: framework coordination overhead.
		ctx.Compute(bspSuperstepOverhead)
		ctx.Stats().Supersteps++

		cur := step & 1
		count := int(ctx.Load(b.tailAddr[cur]))
		lo := lid * count / T
		hi := (lid + 1) * count / T
		for i := lo; i < hi; i++ {
			u := int(ctx.Load(b.qBase[cur] + i))
			for _, wv := range b.G.Neighbors(u) {
				w := int(wv)
				// Vertex message: serialize, route, deserialize.
				ctx.Compute(bspPerMessageCost)
				ctx.Stats().MsgsSent++
				if ctx.Load(b.parentBase+w) != 0 {
					continue
				}
				if ctx.CAS(b.parentBase+w, 0, uint64(u)+1) {
					idx := ctx.FetchAdd(b.tailAddr[cur^1], 1)
					ctx.Store(b.qBase[cur^1]+int(idx), uint64(w))
				}
			}
		}
		ctx.Barrier()
		total := uint64(0)
		if lid == 0 {
			total = ctx.Load(b.tailAddr[cur^1])
			ctx.Store(b.tailAddr[cur], 0)
		}
		if ctx.AllReduceSum(total) == 0 {
			return
		}
	}
}

// Parents gathers the BFS tree (global parent or -1).
func (b *BSPBFS) Parents(m exec.Machine) []int64 {
	out := make([]int64, b.G.N)
	for v := range out {
		out[v] = int64(m.Mem(0)[b.parentBase+v]) - 1
	}
	return out
}
