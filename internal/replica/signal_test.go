package replica

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"prognosticator/internal/flowctl"
	"prognosticator/internal/vclock"
)

// TestApplySignalWakesConcurrentWaiters: waiters that take the generation
// before checking their condition never miss a raise, however raisers and
// waiters interleave, and a waiter with nothing raised times out at its
// deadline.
func TestApplySignalWakesConcurrentWaiters(t *testing.T) {
	s := newApplySignal(vclock.Wall)
	const target = 200
	var applied atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			dl := flowctl.After(10 * time.Second)
			for {
				ch := s.next()
				if applied.Load() >= target {
					return
				}
				if !s.wait(ch, dl) {
					t.Error("waiter timed out with raises pending")
					return
				}
			}
		}()
	}
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < target/2; i++ {
				applied.Add(1)
				s.raise()
			}
		}()
	}
	wg.Wait()

	start := time.Now()
	if s.wait(s.next(), flowctl.After(20*time.Millisecond)) {
		t.Fatal("wait returned true without a raise")
	}
	if waited := time.Since(start); waited < 20*time.Millisecond {
		t.Fatalf("wait gave up after %v, before its deadline", waited)
	}
}
