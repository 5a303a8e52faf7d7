package shard

import (
	"fmt"
	"math/rand"
	"sync"
	"time"
)

// Deterministic chaos injection for the cluster layer. A ChaosPlan
// installs a chaosLink on every coordinator-side worker link; the
// chaosLink intercepts writeFrame under the link's write mutex and
// decides, per frame, whether to pass it through, drop it, duplicate
// it, corrupt its header, delay it, or kill the connection.
//
// Determinism is the point: every decision is a pure function of
// (plan seed, session rank, link incarnation, per-link frame ordinal).
// The same plan against the same workload yields the same fault
// schedule, so chaos failures found in CI replay locally from the seed
// alone. Two rules keep it that way:
//
//   - The PRNG draws exactly one variate per intercepted frame, whether
//     or not a fault fires, so the stream position depends only on the
//     frame ordinal.
//   - Positional triggers (KillAt, DropAt, Partition) fire on the first
//     incarnation of a rank's link only — a rejoined replacement gets a
//     clean link, so a kill schedule cannot re-kill the replacement.
//
// Handshake and teardown frames (welcome, bye, error) always pass:
// chaos models a faulty fabric under an established session, not a
// cluster that can never form.
//
// Faults are injected on the coordinator's outbound side only, which
// reaches every failure path all the same: dropping a frame to worker W
// starves W (collective timeout on W, then session death or abort),
// killing W's connection surfaces on both sides, and corrupting a frame
// makes W's read loop fail the link — the coordinator observes each as
// a dead or silent rank, evicts, and retries.

// ChaosPlan describes a deterministic fault schedule. The zero value
// injects nothing. Plans are safe for concurrent use by many links.
type ChaosPlan struct {
	// Seed roots every per-link PRNG (mixed with rank and incarnation).
	Seed int64

	// Per-frame probabilities of the four probabilistic faults; one
	// uniform draw per frame selects among them (cumulative thresholds),
	// so their sum must stay ≤ 1.
	DropP    float64
	DupP     float64
	CorruptP float64
	DelayP   float64
	// Delay is how long a delayed frame stalls (default 2ms). The link's
	// write mutex is held throughout, so a delay stalls every writer of
	// that link — exactly what a congested path does.
	Delay time.Duration

	// DropAt drops the listed frame ordinals (0-based, counted per link,
	// protected frames excluded) of each rank's first link incarnation.
	DropAt map[int][]uint64
	// KillAt closes rank's connection at the given frame ordinal: the
	// frame is not written and the link dies mid-session, as a SIGKILLed
	// peer would appear.
	KillAt map[int]uint64
	// Partition drops every frame of rank's first incarnation whose
	// ordinal falls in [from, to) — a one-way link blackout that heals.
	Partition map[int][2]uint64

	// MaxFaults caps how many probabilistic faults fire plan-wide
	// (0 = unlimited). Positional triggers are exempt: they are part of
	// the scripted scenario, not background noise.
	MaxFaults int

	mu           sync.Mutex
	incarnations map[int]int
	faults       int
}

// link mints the chaos interceptor for rank's next link incarnation.
func (p *ChaosPlan) link(rank int) *chaosLink {
	p.mu.Lock()
	if p.incarnations == nil {
		p.incarnations = make(map[int]int)
	}
	inc := p.incarnations[rank]
	p.incarnations[rank]++
	p.mu.Unlock()
	seed := p.Seed ^ int64(rank)*0x9E3779B9 ^ int64(inc)*0x85EBCA6B
	return &chaosLink{
		plan: p,
		rank: rank,
		inc:  inc,
		rng:  rand.New(rand.NewSource(seed)),
	}
}

// takeFault consumes one unit of the plan-wide probabilistic-fault
// budget; false means the budget is spent and the frame passes clean.
func (p *ChaosPlan) takeFault() bool {
	if p.MaxFaults <= 0 {
		return true
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.faults >= p.MaxFaults {
		return false
	}
	p.faults++
	return true
}

// chaosAction is what the schedule decides for one frame.
type chaosAction uint8

const (
	chaosPass chaosAction = iota
	chaosDrop
	chaosDup
	chaosCorrupt
	chaosDelay
	chaosKill
)

// chaosLink intercepts one link's outbound frames. All state is guarded
// by the owning link's write mutex — writeFrame calls write() with wmu
// held — so the PRNG and frame counter need no locking of their own.
type chaosLink struct {
	plan  *ChaosPlan
	rank  int
	inc   int
	rng   *rand.Rand
	frame uint64
}

// decide runs the schedule for the frame at ordinal fr and reports
// whether the action is a scripted (budget-exempt) trigger. It always
// advances the PRNG by exactly one draw (determinism; see the package
// comment), and it alone decides — budget accounting happens in write.
func (c *chaosLink) decide(fr uint64) (action chaosAction, scripted bool) {
	p := c.plan
	roll := c.rng.Float64()
	if c.inc == 0 {
		if k, ok := p.KillAt[c.rank]; ok && fr == k {
			return chaosKill, true
		}
		if w, ok := p.Partition[c.rank]; ok && fr >= w[0] && fr < w[1] {
			return chaosDrop, true
		}
		for _, d := range p.DropAt[c.rank] {
			if fr == d {
				return chaosDrop, true
			}
		}
	}
	switch {
	case roll < p.DropP:
		return chaosDrop, false
	case roll < p.DropP+p.DupP:
		return chaosDup, false
	case roll < p.DropP+p.DupP+p.CorruptP:
		return chaosCorrupt, false
	case roll < p.DropP+p.DupP+p.CorruptP+p.DelayP:
		return chaosDelay, false
	}
	return chaosPass, false
}

// write applies the schedule to one frame; called by link.writeFrame
// with wmu held.
func (c *chaosLink) write(l *link, ft frameType, payload []byte) error {
	switch ft {
	case ftWelcome, ftBye, ftError:
		return l.writeFrameLocked(ft, payload, false)
	}
	fr := c.frame
	c.frame++
	action, scripted := c.decide(fr)
	if action != chaosPass && !scripted && !c.plan.takeFault() {
		action = chaosPass
	}
	switch action {
	case chaosDrop:
		// The frame vanishes: no bytes, no send metrics — exactly a loss
		// inside the fabric. The receiver starves and times out.
		return nil
	case chaosDup:
		if err := l.writeFrameLocked(ft, payload, false); err != nil {
			return err
		}
		return l.writeFrameLocked(ft, payload, false)
	case chaosCorrupt:
		return l.writeFrameLocked(ft, payload, true)
	case chaosDelay:
		d := c.plan.Delay
		if d <= 0 {
			d = 2 * time.Millisecond
		}
		time.Sleep(d)
		return l.writeFrameLocked(ft, payload, false)
	case chaosKill:
		l.conn.Close()
		return fmt.Errorf("shard: chaos killed rank %d's link at frame %d", c.rank, fr)
	}
	return l.writeFrameLocked(ft, payload, false)
}
