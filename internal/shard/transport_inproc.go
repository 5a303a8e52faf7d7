package shard

// inprocTransport is the single-process fabric: every shard lives in this
// process, so delivery is the historical mutex-guarded inbox append and
// the cross-process protocol degenerates completely — barriers and
// collectives are no-ops and quiescence is just "no inbox holds a batch".
// This is the default transport and the one every pre-existing caller
// gets; its deliver path is byte-for-byte the old Worker.flush handoff,
// keeping the steady-state message path allocation-free.
type inprocTransport struct {
	ex *Executor
}

func (t *inprocTransport) endpoints() (int, int)     { return 0, 1 }
func (t *inprocTransport) attach(ex *Executor)       { t.ex = ex }
func (t *inprocTransport) pending() int              { return localPending(t.ex) }
func (t *inprocTransport) quiesced() bool            { return localPending(t.ex) == 0 }
func (t *inprocTransport) barrier()                  {}
func (t *inprocTransport) allreduce(redOp, []uint64) {}
func (t *inprocTransport) deliver(_ *Worker, dst int, batch []message) {
	s := t.ex.shards[dst]
	s.inbox.mu.Lock()
	s.inbox.batches = append(s.inbox.batches, batch)
	s.inbox.mu.Unlock()
}
