package exec

import (
	"fmt"

	"aamgo/internal/memmodel"
	"aamgo/internal/vtime"
)

// HTMProfile describes one hardware-transactional-memory implementation:
// its speculative-state capacity, its abort/retry policy, and its latency
// constants. The retry policies mirror §4.1 of the paper:
//
//   - Intel RTM gives no progress guarantee; the runtime retries with
//     exponential backoff and falls back to a serializing lock;
//   - Intel HLE serializes after the first abort (in hardware);
//   - BG/Q HTM retries automatically and serializes when the retry count
//     reaches a limit (default 10).
type HTMProfile struct {
	Name string

	// Speculative-state capacity. WriteGeo bounds the write set (L1 on
	// Haswell, L2 on BG/Q); ReadGeo bounds the read set (larger on
	// Haswell, same structure on BG/Q).
	WriteGeo memmodel.Geometry
	ReadGeo  memmodel.Geometry

	// Policy.
	MaxRetries          int  // attempts before serializing
	SerializeAfterFirst bool // HLE: hardware serialization after abort #1
	SoftwareBackoff     bool // RTM: exponential backoff between retries

	// Latency constants (virtual time).
	BeginCost     vtime.Time
	CommitCost    vtime.Time
	PerAccessCost vtime.Time // per distinct cache line touched
	AbortCost     vtime.Time // detection + rollback
	RetryDelay    vtime.Time // fixed pause before a hardware auto-retry
	BackoffBase   vtime.Time // base of exponential software backoff
	SerializeCost vtime.Time // fallback-path entry cost (lock handoff)

	// OtherAbortProb is the per-attempt probability of a spurious abort.
	OtherAbortProb float64

	// ArbCost is a per-attempt serialized arbitration charge at the
	// node's shared HTM resource. It models implementations that keep
	// speculative state in a shared cache (BG/Q L2): every transaction
	// begin funnels through the L2 controller, so transactional
	// throughput degrades as the thread count grows (§5.4, Fig. 3).
	// Zero for per-core implementations (Haswell L1).
	ArbCost vtime.Time

	// SMTCapacityProb is the per-access probability of a spurious
	// capacity abort while SMT siblings share the transactional cache
	// (threads > cores). Models the Haswell behaviour behind Fig. 5a:
	// the co-resident thread's demand misses evict speculative lines.
	SMTCapacityProb float64

	// LockSubscription marks implementations whose fallback path is a
	// lock every speculative transaction subscribes to (Intel RTM/HLE):
	// one serialized section aborts all concurrent transactions (the
	// "lemming effect"). BG/Q serializes via an irrevocable mode that
	// only conflicts on actual data overlap.
	LockSubscription bool
}

// MachineProfile bundles the per-architecture cost model: atomics, plain
// memory operations, locks, the network, and the available HTM variants.
type MachineProfile struct {
	Name       string
	MaxThreads int // hardware threads per node
	Cores      int // physical cores per node (SMT when threads > cores)

	// CASFailsShared marks LL/SC architectures (PowerPC): a CAS whose
	// compare fails exits after the load-reserve and never takes the
	// line exclusive, so failing CAS traffic scales (BG/Q, §5.4.1).
	// x86 lock cmpxchg always acquires the line (false for Haswell).
	CASFailsShared bool

	// LineConflicts selects 64-byte-line conflict granularity for every
	// HTM variant (Intel TSX tracks read/write sets per L1 line, so
	// neighboring words false-share). BG/Q's L2 versioning resolves
	// conflicts per word.
	LineConflicts bool

	// Memory-operation latencies.
	CASCost    vtime.Time
	FAOCost    vtime.Time // fetch-and-add / accumulate
	LoadCost   vtime.Time
	StoreCost  vtime.Time
	LockCost   vtime.Time
	UnlockCost vtime.Time

	// Per-activity runtime overhead (task creation/dispatch).
	TaskOverhead vtime.Time

	// Network (inter-node active messages).
	NetAlpha     vtime.Time // per-message latency
	NetBeta      vtime.Time // per-payload-word cost
	SendOverhead vtime.Time // sender-side injection cost
	HandlerCost  vtime.Time // receiver-side dispatch cost per message
	// RemoteAtomicCost is the end-to-end service cost of a one-sided
	// remote atomic (PAMI_Rmw on BG/Q, MPI-3 RMA on InfiniBand),
	// charged at the target in addition to NetAlpha. One-sided atomics
	// are NIC/torus-offloaded and skip the software AM stack.
	RemoteAtomicCost vtime.Time
	// AMStackCost is the software active-message dispatch cost charged
	// per received AAM packet (matching, handler lookup, unpacking) —
	// the overhead that coalescing amortizes (§5.6).
	AMStackCost vtime.Time

	// Collectives.
	BarrierBase vtime.Time
	BarrierStep vtime.Time // per log2(threads)

	// HTM variants by name and the default variant.
	HTM        map[string]*HTMProfile
	DefaultHTM string
}

// ScanCost is the charge for scanning an adjacency of n neighbors: one
// LoadCost per word of 32-bit neighbor ids, plus one. The CSR is immutable
// and lives outside the simulated word memory, so a program charges its
// scan in bulk with Context.Compute.
func (m *MachineProfile) ScanCost(n int) vtime.Time {
	return vtime.Time(n/2+1) * m.LoadCost
}

// HTMVariant returns the named HTM profile, or the default for "".
func (m *MachineProfile) HTMVariant(name string) *HTMProfile {
	if name == "" {
		name = m.DefaultHTM
	}
	p, ok := m.HTM[name]
	if !ok {
		panic(fmt.Sprintf("exec: machine %q has no HTM variant %q", m.Name, name))
	}
	return p
}

// The constants below were calibrated against the single-thread latencies
// reported in the paper's Figures 2 and 3 (see DESIGN.md §5). Absolute
// values only anchor the virtual time scale; the reproduction targets
// ratios and crossover positions.

// HaswellC returns the profile of the Trivium V70.05 commodity server
// (Core i7-4770, 4 cores × 2 SMT, TSX in the 8-way 32 KB L1).
func HaswellC() MachineProfile {
	rtm := &HTMProfile{
		Name:             "rtm",
		WriteGeo:         memmodel.HaswellCL1,
		ReadGeo:          memmodel.HaswellReadSet,
		MaxRetries:       8,
		SoftwareBackoff:  true,
		BeginCost:        14 * vtime.Nanosecond,
		CommitCost:       26 * vtime.Nanosecond,
		PerAccessCost:    4 * vtime.Nanosecond,
		AbortCost:        60 * vtime.Nanosecond,
		BackoffBase:      80 * vtime.Nanosecond,
		SerializeCost:    120 * vtime.Nanosecond,
		OtherAbortProb:   0.00002,
		SMTCapacityProb:  0.004,
		LockSubscription: true,
	}
	hle := &HTMProfile{
		Name:                "hle",
		WriteGeo:            memmodel.HaswellCL1,
		ReadGeo:             memmodel.HaswellReadSet,
		MaxRetries:          1,
		SerializeAfterFirst: true,
		BeginCost:           16 * vtime.Nanosecond,
		CommitCost:          28 * vtime.Nanosecond,
		PerAccessCost:       4 * vtime.Nanosecond,
		AbortCost:           60 * vtime.Nanosecond,
		SerializeCost:       90 * vtime.Nanosecond, // hardware lock elision path
		OtherAbortProb:      0.00002,
		SMTCapacityProb:     0.004,
		LockSubscription:    true,
	}
	return MachineProfile{
		Name:       "has-c",
		MaxThreads: 8,
		Cores:      4,

		LineConflicts: true,

		CASCost:    15 * vtime.Nanosecond,
		FAOCost:    13 * vtime.Nanosecond,
		LoadCost:   2 * vtime.Nanosecond,
		StoreCost:  2 * vtime.Nanosecond,
		LockCost:   18 * vtime.Nanosecond,
		UnlockCost: 8 * vtime.Nanosecond,

		TaskOverhead: 30 * vtime.Nanosecond,

		NetAlpha:         1500 * vtime.Nanosecond, // InfiniBand FDR
		NetBeta:          1 * vtime.Nanosecond,
		SendOverhead:     120 * vtime.Nanosecond,
		HandlerCost:      150 * vtime.Nanosecond,
		RemoteAtomicCost: 350 * vtime.Nanosecond,  // MPI-3 RMA FAO/CAS service (NIC offload)
		AMStackCost:      1600 * vtime.Nanosecond, // MPI two-sided + AM dispatch

		BarrierBase: 300 * vtime.Nanosecond,
		BarrierStep: 60 * vtime.Nanosecond,

		HTM:        map[string]*HTMProfile{"rtm": rtm, "hle": hle},
		DefaultHTM: "rtm",
	}
}

// HaswellP returns the profile of the Greina cluster node (Xeon E5-2680v3,
// 12 cores × 2 SMT, 64 KB L1 budget, InfiniBand FDR between two nodes).
func HaswellP() MachineProfile {
	m := HaswellC()
	m.Name = "has-p"
	m.MaxThreads = 24
	m.Cores = 12
	rtm := *m.HTM["rtm"]
	hle := *m.HTM["hle"]
	rtm.WriteGeo = memmodel.HaswellPL1
	hle.WriteGeo = memmodel.HaswellPL1
	// The server part has slightly slower single-op latency (lower clock)
	// but the same cost structure.
	m.CASCost = 17 * vtime.Nanosecond
	m.FAOCost = 15 * vtime.Nanosecond
	// Speculative accesses traverse the server ring/L3 fabric: per-line
	// costs more than double the client part's.
	rtm.PerAccessCost = 11 * vtime.Nanosecond
	hle.PerAccessCost = 11 * vtime.Nanosecond
	// The E5-2680v3 L1 budget per SMT pair is twice the i7-4770's, so
	// sibling-induced speculative evictions are far rarer (Fig. 5b) —
	// but the server uncore (ring bus, 30 MB L3) makes every abort
	// rollback and re-arm much more expensive, which is why the paper
	// finds no Has-P speedup: memory-conflict overheads eat the gains.
	rtm.SMTCapacityProb = 0.0004
	hle.SMTCapacityProb = 0.0004
	rtm.AbortCost = 260 * vtime.Nanosecond
	hle.AbortCost = 260 * vtime.Nanosecond
	rtm.BackoffBase = 420 * vtime.Nanosecond
	rtm.BeginCost = 22 * vtime.Nanosecond
	rtm.CommitCost = 38 * vtime.Nanosecond
	hle.BeginCost = 24 * vtime.Nanosecond
	hle.CommitCost = 40 * vtime.Nanosecond
	m.HTM = map[string]*HTMProfile{"rtm": &rtm, "hle": &hle}
	return m
}

// BGQ returns the profile of an ALCF Vesta Blue Gene/Q node (16 PowerPC A2
// cores × 4 SMT = 64 threads, HTM in the 16-way 32 MB L2, 5-D torus).
func BGQ() MachineProfile {
	short := &HTMProfile{
		Name:           "short",
		WriteGeo:       memmodel.BGQL2Short,
		ReadGeo:        memmodel.BGQL2Short,
		MaxRetries:     10, // BG/Q default rollback limit
		BeginCost:      420 * vtime.Nanosecond,
		CommitCost:     380 * vtime.Nanosecond,
		PerAccessCost:  26 * vtime.Nanosecond,
		AbortCost:      900 * vtime.Nanosecond, // aborts are expensive on BG/Q
		RetryDelay:     150 * vtime.Nanosecond,
		SerializeCost:  1200 * vtime.Nanosecond,
		OtherAbortProb: 0.0010,
		ArbCost:        100 * vtime.Nanosecond,
	}
	long := &HTMProfile{
		Name:           "long",
		WriteGeo:       memmodel.BGQL2Long,
		ReadGeo:        memmodel.BGQL2Long,
		MaxRetries:     10,
		BeginCost:      700 * vtime.Nanosecond,
		CommitCost:     650 * vtime.Nanosecond,
		PerAccessCost:  34 * vtime.Nanosecond,
		AbortCost:      1100 * vtime.Nanosecond,
		RetryDelay:     150 * vtime.Nanosecond,
		SerializeCost:  1400 * vtime.Nanosecond,
		OtherAbortProb: 0.0005,
		ArbCost:        130 * vtime.Nanosecond,
	}
	return MachineProfile{
		Name:           "bgq",
		MaxThreads:     64,
		Cores:          16,
		CASFailsShared: true,
		CASCost:        110 * vtime.Nanosecond,
		FAOCost:        90 * vtime.Nanosecond,
		LoadCost:       6 * vtime.Nanosecond,
		StoreCost:      6 * vtime.Nanosecond,
		LockCost:       170 * vtime.Nanosecond,
		UnlockCost:     60 * vtime.Nanosecond,

		TaskOverhead: 120 * vtime.Nanosecond,

		NetAlpha:         1100 * vtime.Nanosecond, // 5-D torus + PAMI stack
		NetBeta:          4 * vtime.Nanosecond,
		SendOverhead:     250 * vtime.Nanosecond,
		HandlerCost:      300 * vtime.Nanosecond,
		RemoteAtomicCost: 200 * vtime.Nanosecond,  // PAMI_Rmw service (torus offload)
		AMStackCost:      2400 * vtime.Nanosecond, // PAMI two-sided AM dispatch

		BarrierBase: 800 * vtime.Nanosecond,
		BarrierStep: 120 * vtime.Nanosecond,

		HTM:        map[string]*HTMProfile{"short": short, "long": long},
		DefaultHTM: "short",
	}
}

// ProfileByName resolves "has-c", "has-p" or "bgq".
func ProfileByName(name string) (MachineProfile, error) {
	switch name {
	case "has-c", "haswell", "has":
		return HaswellC(), nil
	case "has-p", "greina":
		return HaswellP(), nil
	case "bgq", "vesta":
		return BGQ(), nil
	}
	return MachineProfile{}, fmt.Errorf("exec: unknown machine profile %q", name)
}
