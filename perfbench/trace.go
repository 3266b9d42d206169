package main

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"prognosticator/internal/engine"
)

const nReplicas = 3

// tracer records, from outside the program, where each batch's
// submit→ack interval goes. Its spans come from a wrapper around each
// replica's Executor (installed through ClusterConfig.NewExecutor) and
// from the client's own clock around SubmitBatch; its engine counts come
// from the ClusterConfig.OnApply tap. The client keeps exactly one batch
// in flight and SubmitBatch returns only once every replica applied it,
// so all executions seen between a submit and its return belong to that
// batch.
type tracer struct {
	on atomic.Bool

	mu sync.Mutex
	// The in-flight batch: each replica's ExecuteBatch start and end.
	start, end [nReplicas]time.Time
	calls      [nReplicas]int
	// Totals over every traced batch.
	busy                       time.Duration // ExecuteBatch time, all replicas
	results                    int           // BatchResults seen (batches × replicas)
	txs, aborts, rounds        int
	prepare, exec              time.Duration
	commit, engFirst, lag, ack []float64 // consecutive spans per batch, ms
	engMedian, lat             []float64 // ms
}

// timedExec times each ExecuteBatch while the tracer is on.
type timedExec struct {
	engine.Executor
	replica int
	tr      *tracer
}

func (x *timedExec) ExecuteBatch(batch []engine.Request) (*engine.BatchResult, error) {
	if !x.tr.on.Load() {
		return x.Executor.ExecuteBatch(batch)
	}
	t0 := time.Now()
	res, err := x.Executor.ExecuteBatch(batch)
	x.tr.executed(x.replica, t0, time.Now())
	return res, err
}

func (t *tracer) executed(r int, start, end time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.start[r], t.end[r] = start, end
	t.calls[r]++
	t.busy += end.Sub(start)
}

// applied folds one replica's BatchResult into the engine counts.
func (t *tracer) applied(res *engine.BatchResult) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.results++
	t.txs += len(res.Outcomes)
	t.aborts += res.Aborts
	t.rounds += res.FailRound
	for i := range res.Outcomes {
		t.prepare += res.Outcomes[i].Prepare
		t.exec += res.Outcomes[i].Exec
	}
}

// batchDone closes the in-flight batch submitted at t0 and acknowledged at
// t1. Its interval splits into four consecutive spans: submit → first
// ExecuteBatch start (raft.commit), that replica's ExecuteBatch
// (engine), its end → the last replica's end (follower lag), and the last
// end → SubmitBatch return (ack wait).
func (t *tracer) batchDone(t0, t1 time.Time) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	first, lastEnd := 0, t.end[0]
	durs := make([]float64, nReplicas)
	for r := 0; r < nReplicas; r++ {
		if t.calls[r] != 1 {
			return fmt.Errorf("trace: replica %d executed %d batches during one submit", r, t.calls[r])
		}
		if t.start[r].Before(t.start[first]) {
			first = r
		}
		if t.end[r].After(lastEnd) {
			lastEnd = t.end[r]
		}
		durs[r] = ms(t.end[r].Sub(t.start[r]))
		t.calls[r] = 0
	}
	spans := [4]time.Duration{
		t.start[first].Sub(t0),
		t.end[first].Sub(t.start[first]),
		lastEnd.Sub(t.end[first]),
		t1.Sub(lastEnd),
	}
	t.commit = append(t.commit, ms(spans[0]))
	t.engFirst = append(t.engFirst, ms(spans[1]))
	t.lag = append(t.lag, ms(spans[2]))
	t.ack = append(t.ack, ms(spans[3]))
	t.engMedian = append(t.engMedian, median(durs))
	t.lat = append(t.lat, ms(t1.Sub(t0)))
	return nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
