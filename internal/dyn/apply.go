package dyn

import (
	"fmt"
	"time"

	"aamgo/internal/aam"
	"aamgo/internal/exec"
	"aamgo/internal/graph"
	"aamgo/internal/run"
)

// TxConfig tunes the transactional phase of one Apply batch. The zero value
// runs on the simulator's default Haswell profile under HTM.
type TxConfig struct {
	// Mechanism isolates the edge operators: HTM (default), Atomic, Lock,
	// Optimistic or FlatCombining — the full §4.1 + conclusion set.
	Mechanism aam.Mechanism
	// Runtime is "sim" (deterministic virtual time, the default) or
	// "native" (real goroutines with the TL2-style STM).
	Runtime string
	// Machine is the simulated machine profile ("has-c" default).
	Machine string
	// HTMVariant selects the HTM implementation; empty is the machine
	// default.
	HTMVariant string
	// Threads shapes the machine (default 4; capped at the profile's
	// hardware thread count).
	Threads int
	// M and C are the coarsening and coalescing factors (defaults 16/64).
	M, C int
	// Seed fixes machine randomness (default 1).
	Seed int64
	// CompactFraction triggers delta compaction when
	// DeltaArcs > CompactFraction × base arcs (default 0.5; negative
	// disables compaction).
	CompactFraction float64
}

func (c TxConfig) resolve() (exec.MachineProfile, TxConfig, error) {
	if c.Runtime == "" {
		c.Runtime = run.Sim
	}
	if c.Machine == "" {
		c.Machine = "has-c"
	}
	prof, err := exec.ProfileByName(c.Machine)
	if err != nil {
		return prof, c, err
	}
	if c.Threads <= 0 {
		c.Threads = 4
	}
	if c.Threads > prof.MaxThreads {
		c.Threads = prof.MaxThreads
	}
	if c.M <= 0 {
		c.M = 16
	}
	if c.C <= 0 {
		c.C = 64
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.CompactFraction == 0 {
		c.CompactFraction = defaultCompactFraction
	}
	return prof, c, nil
}

// defaultCompactFraction is the compaction trigger used when TxConfig
// leaves CompactFraction zero, and by Replay (which has no TxConfig).
const defaultCompactFraction = 0.5

// applier carries the shared state of one transactional batch: the
// pre-batch snapshot every operator validates against, and per-thread
// commit buckets filled by OnDone callbacks.
type applier struct {
	pre     *Snapshot
	muts    []Mutation
	rt      *aam.Runtime
	addOp   int
	delOp   int
	buckets []bucket
}

type bucket struct {
	committed []Mutation
	rejected  int
}

const verBase = 0 // per-vertex version words live at [0, n)

// Apply executes batch as one transactional phase and publishes the
// resulting snapshot. Vertex additions are sequenced first (they always
// succeed); edge mutations then run concurrently as May-Fail AAM operators
// on an abstract machine under cfg.Mechanism, each operator reading and
// writing the version words of both endpoints so that mutations touching a
// common vertex genuinely conflict. Committed mutations are folded into a
// copy-on-write snapshot; readers holding older snapshots are unaffected.
//
// Every mutation validates against the pre-batch snapshot: a batch is a
// transaction, and all its operators see the state at batch start.
func (g *Graph) Apply(batch []Mutation, cfg TxConfig) (BatchResult, error) {
	prof, cfg, err := cfg.resolve()
	if err != nil {
		return BatchResult{}, err
	}

	start := time.Now()
	defer func() { g.histApply.RecordSince(int64(time.Since(start))) }()

	// The unlock is deferred because the transactional phase can panic: a
	// panic in an operator body is the machine's Run's panic, and it must
	// not leave the writer lock held for every later batch.
	res, wait, err := func() (BatchResult, func() error, error) {
		g.mu.Lock()
		defer g.mu.Unlock()
		return g.applyLocked(batch, prof, cfg)
	}()
	if err != nil || wait == nil {
		return res, err
	}
	// Durability wait runs outside the writer lock: the next batch can
	// append to the log tail while this one blocks on the group fsync, so
	// one sync retires every batch that piled up behind it.
	if werr := wait(); werr != nil {
		return res, fmt.Errorf("%w: epoch %d: %v", ErrDurability, res.Epoch, werr)
	}
	return res, nil
}

// applyLocked is the body of Apply under g.mu: validation, transactional
// phase, fold, publish, and the durability-hook append. It returns the
// hook's wait closure for Apply to run after unlocking.
func (g *Graph) applyLocked(batch []Mutation, prof exec.MachineProfile, cfg TxConfig) (BatchResult, func() error, error) {
	pre := g.cur.Load()

	var res BatchResult
	edgeMuts, newN, err := splitBatch(batch, pre.n)
	if err != nil {
		return BatchResult{}, nil, err
	}
	res.VerticesAdded = newN - pre.n
	res.N = newN

	ns := pre.clone(newN)
	if g.uf != nil {
		g.uf.grow(newN)
	}

	// touched collects the vertices whose merged adjacency this batch
	// changes, for the incremental-freeze journal.
	var touched []int32

	// Transactional phase for the edge mutations.
	if len(edgeMuts) > 0 {
		a := &applier{pre: pre, muts: edgeMuts}
		machRes := a.run(prof, cfg, newN)
		res.Elapsed = time.Duration(machRes.Elapsed)
		res.Stats = machRes.Stats

		f := newFolder(g, ns, &res)
		for t := range a.buckets {
			b := &a.buckets[t]
			res.Rejected += b.rejected
			for _, m := range b.committed {
				f.fold(m)
			}
		}
		touched = f.finish()
	}
	res.Applied += res.VerticesAdded

	g.publishLocked(ns, &res, touched, cfg.CompactFraction)

	g.cum.Tx.Add(&res.Stats.Thread)
	if m := int(cfg.Mechanism); m >= 0 && m < numMechs {
		pm := &g.cum.PerMech[m]
		pm.Batches++
		pm.Aborts += res.Stats.TotalAborts()
		pm.Retries += res.Stats.Retries
		pm.Serialized += res.Stats.TxSerialized
	}

	var wait func() error
	if g.walHook != nil {
		// Epoch/N/Arcs are invariant under the compaction publishLocked
		// may have applied (compaction rewrites representation, not
		// state), so the pre-compaction ns is the published truth.
		wait = g.walHook(CommitInfo{Epoch: res.Epoch, N: newN, Arcs: ns.arcs, Batch: batch})
	}
	return res, wait, nil
}

// Replay applies a batch recovered from a write-ahead log record without
// the transactional machine: a batch's committed/rejected/redundant
// outcome is a pure function of the pre-batch snapshot (each edge mutation
// commits iff its membership check against that snapshot passes, and
// intra-batch duplicates collapse by edge key), so recovery re-derives it
// directly and skips the abort/retry simulation. The durability hook is
// deliberately bypassed — replayed batches came from the log. Compaction
// runs with the default fraction; it rewrites representation, not logical
// state or epoch, so a compaction schedule differing from the original run
// is invisible after the per-vertex adjacency is sorted.
func (g *Graph) Replay(batch []Mutation) (BatchResult, error) {
	g.mu.Lock()
	defer g.mu.Unlock()

	pre := g.cur.Load()
	var res BatchResult
	edgeMuts, newN, err := splitBatch(batch, pre.n)
	if err != nil {
		return BatchResult{}, err
	}
	res.VerticesAdded = newN - pre.n
	res.N = newN

	ns := pre.clone(newN)
	if g.uf != nil {
		g.uf.grow(newN)
	}
	var touched []int32
	if len(edgeMuts) > 0 {
		f := newFolder(g, ns, &res)
		for _, m := range edgeMuts {
			wantExists := m.Kind == KindRemoveEdge
			if pre.HasEdge(m.U, m.V) != wantExists {
				res.Rejected++
				continue
			}
			f.fold(m)
		}
		touched = f.finish()
	}
	res.Applied += res.VerticesAdded

	g.publishLocked(ns, &res, touched, defaultCompactFraction)
	return res, nil
}

// splitBatch sequences vertex additions and validates edge endpoints
// against the post-addition vertex count, returning the edge mutations and
// the new vertex count.
func splitBatch(batch []Mutation, n int) (edgeMuts []Mutation, newN int, err error) {
	newN = n
	edgeMuts = make([]Mutation, 0, len(batch))
	for i, m := range batch {
		switch m.Kind {
		case KindAddVertex:
			newN++
		case KindAddEdge, KindRemoveEdge:
			if int(m.U) < 0 || int(m.U) >= newN || int(m.V) < 0 || int(m.V) >= newN {
				return nil, 0, fmt.Errorf("dyn: batch[%d]: edge (%d,%d) out of range [0,%d)", i, m.U, m.V, newN)
			}
			if m.U == m.V {
				return nil, 0, fmt.Errorf("dyn: batch[%d]: self-loop (%d,%d) not supported", i, m.U, m.V)
			}
			edgeMuts = append(edgeMuts, m)
		default:
			return nil, 0, fmt.Errorf("dyn: batch[%d]: unknown mutation kind %d", i, m.Kind)
		}
	}
	return edgeMuts, newN, nil
}

// folder folds the committed mutations of one batch into the next
// snapshot: intra-batch duplicates collapse to one application, a deletion
// drops the incremental CC forest, and finish derives the touched-vertex
// journal plus the union-find updates. Shared by the transactional Apply
// path and the machine-free Replay path so both fold identically.
type folder struct {
	g                *Graph
	ns               *Snapshot
	cw               cow
	seenAdd, seenDel map[[2]int32]bool
	res              *BatchResult
}

func newFolder(g *Graph, ns *Snapshot, res *BatchResult) *folder {
	return &folder{
		g:       g,
		ns:      ns,
		cw:      cow{},
		seenAdd: make(map[[2]int32]bool),
		seenDel: make(map[[2]int32]bool),
		res:     res,
	}
}

func (f *folder) fold(m Mutation) {
	key := [2]int32{min(m.U, m.V), max(m.U, m.V)}
	switch m.Kind {
	case KindAddEdge:
		if f.seenAdd[key] {
			f.res.Redundant++
			return
		}
		f.seenAdd[key] = true
		f.ns.insertArc(m.U, m.V, f.cw)
		f.ns.insertArc(m.V, m.U, f.cw)
		f.res.Applied++
	case KindRemoveEdge:
		if f.seenDel[key] {
			f.res.Redundant++
			return
		}
		f.seenDel[key] = true
		f.ns.deleteArc(m.U, m.V, f.cw)
		f.ns.deleteArc(m.V, m.U, f.cw)
		f.res.Applied++
		f.g.uf = nil // union-find cannot undo: the next query builds it again
	}
}

func (f *folder) finish() (touched []int32) {
	for p, bits := range f.cw {
		for i, b := range bits {
			if b != 0 {
				touched = append(touched, p<<pageBits+int32(i))
			}
		}
	}
	// Incremental CC: a forest that is built takes the committed inserts.
	if uf := f.g.uf; uf != nil {
		for key := range f.seenAdd {
			uf.union(int(key[0]), int(key[1]))
		}
	}
	return touched
}

// publishLocked runs the shared tail of a batch under g.mu: the compaction
// check, the incremental-freeze bookkeeping, snapshot publication and the
// lifetime counters.
func (g *Graph) publishLocked(ns *Snapshot, res *BatchResult, touched []int32, compactFraction float64) {
	// Compaction: fold the deltas back into a fresh base CSR when they
	// outgrow the configured fraction of it.
	if compactFraction >= 0 {
		baseArcs := int64(len(ns.base.Adj))
		if ns.DeltaArcs() > int64(float64(baseArcs)*compactFraction) && ns.DeltaArcs() > 0 {
			ns = compact(ns)
			res.Compacted = true
			g.cum.Compactions++
		}
	}

	// Keep the incremental-freeze state in step with the published epoch:
	// compaction re-seeds the arena from the fresh base, every other batch
	// journals its touched vertices.
	if res.Compacted {
		g.mat.reset(ns)
	} else {
		g.mat.record(ns.epoch, touched)
	}

	g.cur.Store(ns)

	g.cum.Batches++
	g.cum.Applied += uint64(res.Applied)
	g.cum.Rejected += uint64(res.Rejected)
	g.cum.Redundant += uint64(res.Redundant)
	g.cum.Epoch = ns.epoch
	res.Epoch = ns.epoch
}

// Compact immediately folds all deltas into a fresh base CSR and publishes
// the result as a new epoch.
func (g *Graph) Compact() {
	g.mu.Lock()
	defer g.mu.Unlock()
	s := g.cur.Load()
	if s.DeltaArcs() == 0 && s.n == s.base.N {
		return
	}
	ns := compact(s)
	ns.epoch = s.epoch + 1
	g.cum.Compactions++
	g.cum.Epoch = ns.epoch
	g.mat.reset(ns)
	g.cur.Store(ns)
}

// compact folds every delta of s into a fresh base CSR. The result denotes
// the same logical state, so it keeps s's epoch. The new base is
// re-canonicalized to per-vertex sorted adjacency — the invariant the
// binary-search membership checks rely on.
func compact(s *Snapshot) *Snapshot {
	flat := s.materialize()
	if flat != s.base {
		// Fresh arrays (not shared with any published view): sort in place.
		sortSegments(flat, nil)
	}
	return &Snapshot{epoch: s.epoch, n: s.n, base: flat, pages: newPages(s.n), arcs: s.arcs, mat: s.mat}
}

// run executes the edge mutations on a single-node abstract machine and
// returns the machine result. Memory layout: [0,n) per-vertex version
// words, then a 64-word pad, then the lock region (per-vertex locks for
// MechLock/MechOptimistic, the combining structure for MechFlatCombining).
func (a *applier) run(prof exec.MachineProfile, cfg TxConfig, n int) exec.Result {
	lockBase := n + 64
	lockWords := n
	if fc := 1 + 2*cfg.Threads; fc > lockWords {
		lockWords = fc
	}

	a.rt = aam.NewRuntime()
	a.addOp = a.rt.Register(a.edgeOp(KindAddEdge))
	a.delOp = a.rt.Register(a.edgeOp(KindRemoveEdge))
	a.buckets = make([]bucket, cfg.Threads)

	var variant *exec.HTMProfile
	if cfg.Mechanism == aam.MechHTM {
		variant = prof.HTMVariant(cfg.HTMVariant)
	}
	engCfg := aam.Config{
		M:         cfg.M,
		C:         cfg.C,
		Mechanism: cfg.Mechanism,
		HTM:       variant,
		Part:      graph.NewPartition(n, 1),
		LockBase:  lockBase,
	}

	m := run.New(cfg.Runtime, exec.Config{
		Nodes:          1,
		ThreadsPerNode: cfg.Threads,
		MemWords:       lockBase + lockWords + 64,
		Profile:        &prof,
		Handlers:       a.rt.Handlers(nil),
		Seed:           cfg.Seed,
	})
	return m.Run(func(ctx exec.Context) {
		eng := aam.NewEngine(a.rt, ctx, engCfg)
		P := ctx.ThreadsPerNode()
		lid := ctx.LocalID()
		op := 0
		for i := lid; i < len(a.muts); i += P {
			mut := a.muts[i]
			if mut.Kind == KindAddEdge {
				op = a.addOp
			} else {
				op = a.delOp
			}
			eng.Spawn(op, int(mut.U), uint64(uint32(mut.V)))
		}
		eng.Drain()
	})
}

// edgeOp builds the add-edge or remove-edge operator. The transactional
// body bumps the version words of both endpoints — the write set that makes
// concurrent mutations of a shared vertex conflict under HTM/OCC and
// serialize under locks — and charges the duplicate-scan of the immutable
// pre-batch adjacency as read-only data. The May-Fail outcome (duplicate
// insert, missing delete) aborts nothing; it flows back as the operator's
// fail bit, and OnDone routes committed mutations into per-thread buckets.
func (a *applier) edgeOp(kind Kind) *aam.Op {
	wantExists := kind == KindRemoveEdge
	return &aam.Op{
		Name: kind.String(),
		Body: func(tx exec.Tx, e *aam.Engine, v int, arg uint64) (uint64, bool) {
			u, w := int32(v), int32(uint32(arg))
			tx.Write(verBase+int(u), tx.Read(verBase+int(u))+1)
			tx.Write(verBase+int(w), tx.Read(verBase+int(w))+1)
			tx.ReadROData(a.scanCost(u))
			return arg, a.pre.HasEdge(u, w) != wantExists
		},
		BodyAtomic: func(ctx exec.Context, e *aam.Engine, v int, arg uint64) (uint64, bool) {
			u, w := int32(v), int32(uint32(arg))
			if a.pre.HasEdge(u, w) != wantExists {
				return arg, true
			}
			ctx.FetchAdd(verBase+int(u), 1)
			ctx.FetchAdd(verBase+int(w), 1)
			return arg, false
		},
		LockAddrs: func(e *aam.Engine, v int, arg uint64) []int {
			u, w := v, int(uint32(arg))
			return []int{e.Cfg().LockBase + u, e.Cfg().LockBase + w}
		},
		OnDone: func(e *aam.Engine, vGlobal int, ret uint64, fail bool) {
			b := &a.buckets[e.Ctx().GlobalID()]
			if fail {
				b.rejected++
				return
			}
			b.committed = append(b.committed, Mutation{Kind: kind, U: int32(vGlobal), V: int32(uint32(ret))})
		},
	}
}

// scanCost is the word count charged for scanning u's adjacency during the
// duplicate check.
func (a *applier) scanCost(u int32) int {
	if int(u) >= a.pre.n {
		return 1
	}
	d := len(a.pre.delta(int(u)).adds)
	if int(u) < a.pre.base.N {
		d += a.pre.base.Degree(int(u))
	}
	if d < 1 {
		d = 1
	}
	return d
}
