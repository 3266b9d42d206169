package raft

import (
	"testing"

	"prognosticator/internal/memnet"
)

// captureTransport records every send and never delivers anything: tests
// drive a node by calling handle directly and inspect what it sent.
type captureTransport struct {
	sent []memnet.Message
}

func (c *captureTransport) Send(to string, payload any) {
	c.sent = append(c.sent, memnet.Message{To: to, Payload: payload})
}

func (c *captureTransport) Inbox() <-chan memnet.Message { return nil }

// take returns and clears the recorded sends.
func (c *captureTransport) take() []memnet.Message {
	out := c.sent
	c.sent = nil
	return out
}

func appendsTo(msgs []memnet.Message, to string) []AppendEntries {
	var out []AppendEntries
	for _, m := range msgs {
		if ae, ok := m.Payload.(AppendEntries); ok && m.To == to {
			out = append(out, ae)
		}
	}
	return out
}

func drainCommitted(n *Node) []Committed {
	var out []Committed
	for {
		select {
		case c := <-n.Apply():
			out = append(out, c)
		default:
			return out
		}
	}
}

// TestFollowerCommitBoundedByMatch: a follower holding a stale suffix from
// an older term must not commit it when a newer leader's short
// AppendEntries carries a high LeaderCommit. The message only proves the
// log matches up to PrevLogIndex+len(Entries); the entries beyond belong to
// the deposed leader and are about to be overwritten.
func TestFollowerCommitBoundedByMatch(t *testing.T) {
	tr := &captureTransport{}
	n := NewNodeWithTransport("f", []string{"f", "old", "new"}, tr, Config{}, 1)
	deliver := func(from string, rpc AppendEntries) {
		n.handle(memnet.Message{From: from, To: "f", Payload: rpc})
	}
	// Term 1: the old leader replicates three entries and commits one.
	deliver("old", AppendEntries{
		Term: 1, Leader: "old",
		Entries:      []Entry{{Term: 1, Cmd: []byte("a")}, {Term: 1, Cmd: []byte("b1")}, {Term: 1, Cmd: []byte("c1")}},
		LeaderCommit: 1,
	})
	if got := n.CommitIndex(); got != 1 {
		t.Fatalf("commit index after term-1 append = %d, want 1", got)
	}
	drainCommitted(n)
	// Term 2: the new leader committed its own entries 2 and 3 on a majority
	// that excludes f; its first message to f is entry-less, anchored at 1.
	deliver("new", AppendEntries{Term: 2, Leader: "new", PrevLogIndex: 1, PrevLogTerm: 1, LeaderCommit: 3})
	if got := n.CommitIndex(); got != 1 {
		t.Fatalf("stale suffix committed: commit index = %d, want 1", got)
	}
	if got := drainCommitted(n); len(got) != 0 {
		t.Fatalf("stale entries delivered: %+v", got)
	}
	// The real entries arrive: they overwrite the stale suffix and commit.
	deliver("new", AppendEntries{
		Term: 2, Leader: "new", PrevLogIndex: 1, PrevLogTerm: 1,
		Entries:      []Entry{{Term: 2, Cmd: []byte("b2")}, {Term: 2, Cmd: []byte("c2")}},
		LeaderCommit: 3,
	})
	got := drainCommitted(n)
	if len(got) != 2 || string(got[0].Cmd) != "b2" || string(got[1].Cmd) != "c2" || got[1].Index != 3 {
		t.Fatalf("delivered %+v, want b2@2 c2@3", got)
	}
}

// TestLeaderPushesCommitIndex: when the commit index advances the leader
// tells each follower whose match covers it at once, with an entry-less
// AppendEntries anchored at the follower's match; a follower whose reply
// was still in flight is told when that reply arrives. No entry is re-sent
// to carry the commit index.
func TestLeaderPushesCommitIndex(t *testing.T) {
	tr := &captureTransport{}
	n := NewNodeWithTransport("l", []string{"l", "a", "b"}, tr, Config{}, 1)
	n.mu.Lock()
	n.startElectionLocked()
	n.mu.Unlock()
	n.handle(memnet.Message{From: "a", To: "l", Payload: VoteReply{Term: 1, Granted: true}})
	if role, _ := n.Status(); role != Leader {
		t.Fatalf("role = %v, want leader", role)
	}
	tr.take()
	idx, _, ok := n.Propose([]byte("x"))
	if !ok || idx != 1 {
		t.Fatalf("propose = %d, %v", idx, ok)
	}
	for _, p := range []string{"a", "b"} {
		if aes := appendsTo(tr.sent, p); len(aes) != 1 || len(aes[0].Entries) != 1 || aes[0].LeaderCommit != 0 {
			t.Fatalf("proposal append to %s = %+v", p, aes)
		}
	}
	tr.take()

	// a acknowledges: the entry commits, and a — whose match covers it — is
	// told at once. b's reply is still in flight: nothing to b yet.
	n.handle(memnet.Message{From: "a", To: "l", Payload: AppendReply{Term: 1, Success: true, MatchIndex: 1}})
	if got := n.CommitIndex(); got != 1 {
		t.Fatalf("leader commit = %d, want 1", got)
	}
	sent := tr.take()
	toA := appendsTo(sent, "a")
	if len(toA) != 1 || len(toA[0].Entries) != 0 || toA[0].PrevLogIndex != 1 || toA[0].PrevLogTerm != 1 || toA[0].LeaderCommit != 1 {
		t.Fatalf("commit push to a = %+v, want one entry-less append at 1 with LeaderCommit 1", toA)
	}
	if toB := appendsTo(sent, "b"); len(toB) != 0 {
		t.Fatalf("sent %+v to b before its reply arrived", toB)
	}

	// b's reply arrives: now b is told.
	n.handle(memnet.Message{From: "b", To: "l", Payload: AppendReply{Term: 1, Success: true, MatchIndex: 1}})
	sent = tr.take()
	toB := appendsTo(sent, "b")
	if len(toB) != 1 || len(toB[0].Entries) != 0 || toB[0].PrevLogIndex != 1 || toB[0].LeaderCommit != 1 {
		t.Fatalf("commit push to b = %+v, want one entry-less append at 1 with LeaderCommit 1", toB)
	}
	if len(sent) != 1 {
		t.Fatalf("sent %d messages on b's reply, want 1: %+v", len(sent), sent)
	}

	// Replies to the pushes carry nothing new: no further sends.
	n.handle(memnet.Message{From: "a", To: "l", Payload: AppendReply{Term: 1, Success: true, MatchIndex: 1}})
	n.handle(memnet.Message{From: "b", To: "l", Payload: AppendReply{Term: 1, Success: true, MatchIndex: 1}})
	if sent := tr.take(); len(sent) != 0 {
		t.Fatalf("replies to commit pushes triggered sends: %+v", sent)
	}

	// A follower applying the push commits exactly the entry it holds.
	ftr := &captureTransport{}
	f := NewNodeWithTransport("a", []string{"l", "a", "b"}, ftr, Config{}, 2)
	f.handle(memnet.Message{From: "l", To: "a", Payload: AppendEntries{
		Term: 1, Leader: "l", Entries: []Entry{{Term: 1, Cmd: []byte("x")}},
	}})
	f.handle(memnet.Message{From: "l", To: "a", Payload: toA[0]})
	if got := f.CommitIndex(); got != 1 {
		t.Fatalf("follower commit after push = %d, want 1", got)
	}
}
