package replica

import (
	"sync"
	"time"

	"prognosticator/internal/flowctl"
	"prognosticator/internal/vclock"
)

// applySignal announces that some replica's applied set changed, so waiters
// (SubmitBatch, WaitCaughtUp) re-check their condition the moment it may
// have become true instead of polling. A waiter takes the current
// generation's channel with next BEFORE checking its condition, then waits
// on that channel: a raise between the check and the wait closes the
// channel the waiter already holds, so no change is missed.
type applySignal struct {
	clk vclock.Clock
	mu  sync.Mutex
	ch  chan struct{}
}

func newApplySignal(clk vclock.Clock) *applySignal {
	return &applySignal{clk: clk, ch: make(chan struct{})}
}

// next returns the channel the next raise closes.
func (s *applySignal) next() <-chan struct{} {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ch
}

// raise wakes every waiter of the current generation and starts a new one.
// A nil signal (a replica outside a Cluster) ignores it.
func (s *applySignal) raise() {
	if s == nil {
		return
	}
	s.mu.Lock()
	close(s.ch)
	s.ch = make(chan struct{})
	s.mu.Unlock()
	// Under the cooperative scheduler the close is a cross-actor event:
	// idle waiters must re-poll.
	vclock.Publish(s.clk)
}

// wait blocks until ch closes (true) or dl passes (false). On the wall
// clock it is one select. Under the cooperative scheduler a blocking select
// would hold the run baton, so the actor polls both and idles in between;
// raise's Publish or the deadline timer's fire re-readies it.
func (s *applySignal) wait(ch <-chan struct{}, dl flowctl.Deadline) bool {
	var expired <-chan time.Time
	if !dl.IsZero() {
		tm := s.clk.NewTimer(dl.Remaining())
		defer tm.Stop()
		expired = tm.C()
	}
	if !vclock.Scheduled(s.clk) {
		select {
		case <-ch:
			return true
		case <-expired:
			return false
		}
	}
	for {
		select {
		case <-ch:
			return true
		default:
		}
		select {
		case <-expired:
			return false
		default:
		}
		vclock.Idle(s.clk)
	}
}
