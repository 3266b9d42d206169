package replica

import (
	"testing"
	"time"

	"prognosticator/internal/sched"
	"prognosticator/internal/vclock"
)

// TestSubmitAckIsEventDriven runs an idle 3-replica cluster in virtual time
// under the cooperative scheduler, with default raft timing, and submits
// batches one at a time. Each must be acknowledged by every replica in less
// than half a heartbeat interval — the leader pushes the commit index to
// followers as it advances and the submitter wakes on apply, so no step
// waits for a heartbeat tick or a backoff poll. Each batch must also cost
// at most two peers × (append, reply, commit push, reply) messages.
func TestSubmitAckIsEventDriven(t *testing.T) {
	const (
		heartbeat   = 40 * time.Millisecond // raft.Config's default HeartbeatInterval
		batches     = 5
		msgsPerPeer = 4
	)
	sim := vclock.NewSim(5)
	clk := sim.Clock()
	if err := sched.Run(sim, func() {
		cfg := clusterConfig(t, 3, nil)
		cfg.Clock = clk
		c, err := NewCluster(cfg)
		if err != nil {
			t.Error(err)
			return
		}
		defer c.Stop()
		if _, err := c.WaitLeader(10 * time.Second); err != nil {
			t.Error(err)
			return
		}
		clk.Sleep(5 * heartbeat) // settle: the cluster is idle from here
		before := c.Net.Stats().Delivered
		var start time.Time
		for b := 0; b < batches; b++ {
			start = clk.Now()
			if err := c.SubmitBatch([]Request{deposit(int64(b), 10)}, 5*time.Second); err != nil {
				t.Errorf("batch %d: %v", b, err)
				return
			}
			if took := clk.Since(start); took >= heartbeat/2 {
				t.Errorf("batch %d acknowledged after %v of virtual time, want < %v", b, took, heartbeat/2)
			}
		}
		msgs := c.Net.Stats().Delivered - before
		t.Logf("%d batches: %d messages, last ack at %v", batches, msgs, clk.Since(start))
		if limit := int64(batches * (c.Size() - 1) * msgsPerPeer); msgs > limit {
			t.Errorf("%d messages for %d batches, want at most %d", msgs, batches, limit)
		}
		for i := 0; i < c.Size(); i++ {
			if got := c.ReplicaAt(i).Batches(); got != batches {
				t.Errorf("replica %d applied %d batches at acknowledgement, want %d", i, got, batches)
			}
		}
	}); err != nil {
		t.Fatal(err)
	}
}

// TestClusterRejectsUnscheduledSimClock: the replica layer waits on the
// cooperative scheduler in virtual time; a simulated clock without one
// would have no way to advance past a blocked waiter.
func TestClusterRejectsUnscheduledSimClock(t *testing.T) {
	cfg := clusterConfig(t, 3, nil)
	cfg.Clock = vclock.NewSim(1).Clock()
	if c, err := NewCluster(cfg); err == nil {
		c.Stop()
		t.Fatal("NewCluster accepted a simulated clock without a scheduler")
	}
}
