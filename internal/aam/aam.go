// Package aam implements Atomic Active Messages, the paper's core
// contribution (§3–§4): graph operators spawned locally or via active
// messages, executed as activities isolated by (emulated) hardware
// transactional memory, atomics, or locks, with runtime coarsening
// (M operators per transaction) and coalescing (C operators per message),
// the four-way message taxonomy (Fire-and-Forget / Fire-and-Return ×
// Always-Succeed / May-Fail), failure handlers, and the ownership protocol
// for transactions spanning multiple nodes.
package aam

import (
	"fmt"

	"aamgo/internal/exec"
	"aamgo/internal/graph"
)

// Mechanism selects how activities are isolated (§4.1).
type Mechanism int

const (
	// MechHTM runs activities as (emulated) hardware transactions.
	MechHTM Mechanism = iota
	// MechAtomic runs each operator through its single-word atomic
	// implementation; no coarsening is possible.
	MechAtomic
	// MechLock runs activities under sorted per-vertex spinlocks.
	MechLock
	// MechOptimistic runs activities under optimistic locking (Kung &
	// Robinson), one of the alternative isolation mechanisms named in the
	// paper's conclusion: speculative execution against a write buffer,
	// then a fused validate-and-lock commit over versioned per-vertex
	// cells in the lock region.
	MechOptimistic
	// MechFlatCombining runs activities through a per-node flat-combining
	// structure (Hendler et al., also named in the paper's conclusion):
	// threads publish batches and the current combiner-lock holder
	// executes every published batch in one lock acquisition.
	MechFlatCombining
)

// String names the mechanism.
func (m Mechanism) String() string {
	switch m {
	case MechHTM:
		return "htm"
	case MechAtomic:
		return "atomic"
	case MechLock:
		return "lock"
	case MechOptimistic:
		return "occ"
	case MechFlatCombining:
		return "flatcomb"
	default:
		return "mechanism(?)"
	}
}

// MechanismByName is the inverse of String: it resolves the wire names
// used by CLI flags and ?mech=.
func MechanismByName(name string) (Mechanism, error) {
	for m := MechHTM; m <= MechFlatCombining; m++ {
		if m.String() == name {
			return m, nil
		}
	}
	return 0, fmt.Errorf("unknown mechanism %q (want htm, atomic, lock, occ or flatcomb)", name)
}

// Op is one registered operator. Semantics flags follow §3.2: Return
// selects Fire-and-Return (results travel back to the spawner), and
// AbortOnFail makes an operator-level failure roll back the whole
// activity (May-Fail operators with multi-word effects, e.g. Boruvka).
// Always-Succeed activities, which must commit (possibly serialized),
// need no flag: every mechanism retries or serializes an activity until
// it commits, and only a Body's fail result makes an operator fail.
type Op struct {
	Name        string
	Return      bool
	AbortOnFail bool

	// Body executes the operator on local vertex v inside an activity.
	// fail reports a May-Fail algorithm-level failure.
	Body func(tx exec.Tx, e *Engine, v int, arg uint64) (ret uint64, fail bool)

	// BodyAtomic is the MechAtomic implementation (optional).
	BodyAtomic func(ctx exec.Context, e *Engine, v int, arg uint64) (ret uint64, fail bool)

	// OnDone, if set, runs at the executing node after the activity
	// commits, once per operator.
	OnDone func(e *Engine, vGlobal int, ret uint64, fail bool)

	// OnReturn is the failure handler of Fire-and-Return operators; it
	// runs at the spawner.
	OnReturn func(e *Engine, vGlobal int, ret uint64, fail bool)

	// LockAddrs lists the words to lock for MechLock; when nil, the
	// engine locks LockBase+v.
	LockAddrs func(e *Engine, v int, arg uint64) []int
}

// Config tunes one engine instance.
type Config struct {
	// M is the coarsening factor: operators executed per transaction
	// (§4.2). Values below 1 mean 1.
	M int
	// C is the coalescing factor: operators per inter-node message.
	C         int
	Mechanism Mechanism
	// HTM selects the HTM variant; nil uses the machine default.
	HTM *exec.HTMProfile
	// Part maps global vertices to owner nodes (1-D distribution).
	Part graph.Partition
	// LockBase is the node-memory base of the lock region (MechLock,
	// MechOptimistic and MechFlatCombining), LockWords words long.
	LockBase int

	// AutoM enables the online selection of M (§7 future work): the
	// engine hill-climbs the coarsening factor on operator throughput,
	// starting from M and staying within [1, autoMaxM].
	AutoM bool

	// LowerSingle enables the §7 "compiler pass" (here an online
	// analysis): single-operator activities whose observed transactional
	// footprint pattern-matches a single atomic operation are lowered to
	// the operator's BodyAtomic, skipping transaction begin/commit
	// entirely. Only meaningful under MechHTM.
	LowerSingle bool
}

// autoMaxM bounds the AutoM search: 320 is the paper's sweep limit.
const autoMaxM = 320

func (c *Config) normalize() {
	if c.M < 1 {
		c.M = 1
	}
	if c.C < 1 {
		c.C = 1
	}
}
