package main

import (
	"fmt"

	"prognosticator/internal/engine"
	"prognosticator/internal/raft"
	"prognosticator/internal/replica"
	"prognosticator/internal/sequencer"
	"prognosticator/internal/store"
)

// reference is the fault-free mirror a run is checked against: the same
// batches applied exactly once each, in submission order, through the
// sequencer codec at synthetic raft indices. Absolute sequence numbers only
// fix the order inside a batch, so the reference reaches the state every
// replica must hold.
type reference struct {
	st   *store.Store
	exec *engine.Engine
	idx  uint64
}

func newReference(cat catalog, reg *engine.Registry) *reference {
	st := store.New()
	cat.populate(st)
	return &reference{st: st, exec: engine.New(reg, st, engineConfig)}
}

// apply executes one submitted batch and fails if any transaction did not
// commit.
func (r *reference) apply(reqs []replica.Request) error {
	data, err := sequencer.EncodeBatch(toEngine(reqs))
	if err != nil {
		return err
	}
	r.idx++
	b, err := sequencer.DecodeBatch(raft.Committed{Index: r.idx, Cmd: data})
	if err != nil {
		return err
	}
	res, err := r.exec.ExecuteBatch(b.Requests)
	if err != nil {
		return fmt.Errorf("reference batch %d: %w", r.idx, err)
	}
	if n := uncommitted(res); n > 0 {
		return fmt.Errorf("reference batch %d: %d transactions did not commit", r.idx, n)
	}
	return nil
}

func (r *reference) hash() uint64 { return r.st.StateHash(r.st.Epoch()) }

// uncommitted counts the outcomes of res that are pending or never finished.
func uncommitted(res *engine.BatchResult) int {
	n := 0
	for i := range res.Outcomes {
		if o := &res.Outcomes[i]; o.Pending || o.Done.IsZero() {
			n++
		}
	}
	return n
}

// checkHashes reports whether every replica state hash equals want.
func checkHashes(hashes []uint64, want uint64) error {
	for i, h := range hashes {
		if h != want {
			return fmt.Errorf("replica %d state %016x != reference %016x (all: %x)", i, h, want, hashes)
		}
	}
	return nil
}

func toEngine(reqs []replica.Request) []engine.Request {
	out := make([]engine.Request, len(reqs))
	for i, r := range reqs {
		out[i] = engine.Request{TxName: r.TxName, Inputs: r.Inputs}
	}
	return out
}
