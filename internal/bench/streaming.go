package bench

import (
	"fmt"
	"math/rand"
	"reflect"
	"time"

	"aamgo/internal/aam"
	"aamgo/internal/algo"
	"aamgo/internal/dyn"
	"aamgo/internal/graph"
)

func init() {
	register(Experiment{
		ID:    "streaming",
		Title: "Dynamic-graph streaming: transactional mutation under the five isolation mechanisms",
		Paper: "Beyond the paper's batch runs: concurrent fine-grained updates — the " +
			"workload AAM targets — as a service. Mutation batches run under all five " +
			"isolation mechanisms on the simulator and must converge to one graph; the " +
			"abort and retry counts and the virtual machine time gate exactly.",
		Run: runStreaming,
	})
}

var streamingMechs = []aam.Mechanism{
	aam.MechHTM, aam.MechAtomic, aam.MechLock, aam.MechOptimistic, aam.MechFlatCombining,
}

// streamingWorkload builds a deterministic mixed insert/delete stream over
// an n-vertex community graph.
func streamingWorkload(n, batches, perBatch int, seed int64) [][]dyn.Mutation {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]dyn.Mutation, batches)
	for b := range out {
		batch := make([]dyn.Mutation, 0, perBatch)
		for len(batch) < perBatch {
			u, v := int32(rng.Intn(n)), int32(rng.Intn(n))
			if u == v {
				continue
			}
			if rng.Intn(4) == 0 {
				batch = append(batch, dyn.RemoveEdge(u, v))
			} else {
				batch = append(batch, dyn.AddEdge(u, v))
			}
		}
		out[b] = batch
	}
	return out
}

func runStreaming(o Options) *Report {
	rep := &Report{}
	n := 1 << o.shift(11, 6)
	batches := 16
	perBatch := max(n/8, 16)
	base := graph.Community(n, 16, 4, 0.05, o.Seed)
	baseOf := func() *dyn.Graph {
		g, err := dyn.New(base)
		if err != nil {
			panic(err)
		}
		return g
	}
	stream := streamingWorkload(n, batches, perBatch, o.Seed)
	totalMuts := batches * perBatch

	// Part 1: the same mutation stream under every isolation mechanism on
	// the deterministic simulator. Machine time is virtual, so ops/s is
	// the modeled mutation throughput of the §4.1 mechanisms.
	t := rep.NewTable("mutation throughput by mechanism (sim, virtual time)",
		"mechanism", "ops", "applied", "rejected", "aborts", "retries", "serialized",
		"machine-ms", "ops/s")
	type outcome struct {
		applied, rejected int
		arcs              int64
		cc                []int32
	}
	var first *outcome
	converged := true
	for _, mech := range streamingMechs {
		g := baseOf()
		cfg := dyn.TxConfig{Mechanism: mech, Threads: 4, Seed: o.Seed}
		oc := &outcome{}
		var machineTime time.Duration
		for _, batch := range stream {
			res, err := g.Apply(batch, cfg)
			if err != nil {
				panic(err)
			}
			oc.applied += res.Applied
			oc.rejected += res.Rejected
			machineTime += res.Elapsed
		}
		tx := g.Stats().Tx
		opsPerSec := 0.0
		if machineTime > 0 {
			opsPerSec = float64(totalMuts) / machineTime.Seconds()
		}
		t.AddRow(mech.String(), itoa(totalMuts), itoa(oc.applied), itoa(oc.rejected),
			utoa(tx.TotalAborts()), utoa(tx.Retries), utoa(tx.TxSerialized),
			fmt.Sprintf("%.3f", float64(machineTime.Nanoseconds())/1e6),
			fmt.Sprintf("%.0f", opsPerSec))
		// What a change to sim memory must leave alone: the vertex→
		// conflict-line mapping decides every one of these.
		rep.Metricf("streaming.aborts."+mech.String(), float64(tx.TotalAborts()))
		rep.Metricf("streaming.retries."+mech.String(), float64(tx.Retries))
		rep.Metricf("streaming.machine_ns."+mech.String(), float64(machineTime.Nanoseconds()))

		oc.arcs, oc.cc = g.NumArcs(), g.Components()
		if first == nil {
			first = oc
		} else if !reflect.DeepEqual(oc, first) {
			converged = false
		}
	}
	rep.Metricf("streaming.applied", float64(first.applied))
	rep.Metricf("streaming.rejected", float64(first.rejected))
	rep.Checkf(converged, "mechanisms converge",
		"all %d mechanisms apply %d and reject %d mutations, ending with %d arcs and identical components",
		len(streamingMechs), first.applied, first.rejected, first.arcs)

	// Part 2: incremental CC against a from-scratch recompute.
	g := baseOf()
	ok := true
	for _, batch := range stream {
		if _, err := g.Apply(batch, dyn.TxConfig{Seed: o.Seed}); err != nil {
			panic(err)
		}
		if !reflect.DeepEqual(g.Components(), algo.SeqComponents(g.Freeze())) {
			ok = false
			break
		}
	}
	rep.Checkf(ok, "incremental cc correct",
		"union-find view matches recompute after each of %d batches", batches)

	rep.Notef("workload: %d-vertex community graph, %d batches × %d mixed mutations (75%% insert)",
		n, batches, perBatch)
	rep.Notef("every edge operator reads+writes both endpoint version words; " +
		"batch semantics: all operators validate against the pre-batch snapshot")
	return rep
}
