package dist_test

import (
	"errors"
	"strings"
	"testing"

	"op2hpx/internal/dist"
)

// TestMailboxExit pins the per-source exit: it counts the receives
// already waiting on the source on every channel, leaves them for the
// transport to fail, keeps messages queued before the exit receivable,
// and fails later receives from the source with ErrRankFailed.
func TestMailboxExit(t *testing.T) {
	m := dist.NewMailbox(2, 2)
	if _, err := m.Deliver(0, 1, 0, []float64{7}); err != nil {
		t.Fatal(err)
	}
	waiting := m.Recv(1, 1, 0)
	if n := m.Exit(0); n != 1 {
		t.Fatalf("Exit reported %d waiting receives, want 1", n)
	}
	if msg, err := m.Recv(0, 1, 0).Get(); err != nil || len(msg) != 1 || msg[0] != 7 {
		t.Fatalf("message queued before the exit: got %v, %v", msg, err)
	}
	_, err := m.Recv(0, 1, 0).Get()
	if !errors.Is(err, dist.ErrRankFailed) || !strings.Contains(err.Error(), "rank 0 has exited") {
		t.Fatalf("receive after the exit: got %v, want ErrRankFailed", err)
	}
	if waiting.Ready() {
		t.Fatal("Exit resolved a waiting receive")
	}
	cause := errors.New("peer gone")
	if !m.Poison(cause) || m.Poison(errors.New("later")) {
		t.Fatal("Poison did not report the first call alone")
	}
	if _, err := waiting.Get(); !errors.Is(err, cause) {
		t.Fatalf("waiting receive after the poison: got %v", err)
	}
	if n := m.Exit(1); n != 0 {
		t.Fatalf("Exit on a poisoned mailbox reported %d waiting receives", n)
	}
}
