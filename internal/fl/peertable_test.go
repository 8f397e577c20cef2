package fl

import (
	"io"
	"testing"
)

// TestStaleStopAckCompletesSession pins the shutdown race: a peer acks its
// stop and exits, a heartbeat sent before the queued ack is handled fails
// against the closed socket and bumps the session's generation, and the ack
// then arrives stale. It must still complete the session (no reconnect
// window, no churn); every other stale event is dropped without effect.
func TestStaleStopAckCompletesSession(t *testing.T) {
	s := &peerSession{gen: 2}
	if s.stale(inbound{gen: 2, msg: &wireMsg{kind: msgStopAck}}) {
		t.Fatal("current-generation event reported stale")
	}
	for _, ev := range []inbound{
		{gen: 1, msg: &wireMsg{kind: msgHeartbeat}},
		{gen: 1, msg: &wireMsg{kind: msgEvalRes}},
		{gen: 1, err: io.EOF},
	} {
		if !s.stale(ev) {
			t.Fatalf("old-generation event %+v not reported stale", ev)
		}
		if s.stopped {
			t.Fatalf("stale event %+v completed the session", ev)
		}
	}
	if !s.stale(inbound{gen: 1, msg: &wireMsg{kind: msgStopAck}}) {
		t.Fatal("old-generation stop ack not reported stale")
	}
	if !s.stopped {
		t.Fatal("stale stop ack did not complete the session")
	}
}
