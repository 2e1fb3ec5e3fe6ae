package mpi

// Mailbox matching semantics: FIFO per (source, tag) with (AnySource, tag)
// receives taking the oldest deposit on that tag. The indexed mailbox must
// be indistinguishable from the flat scan-in-deposit-order queue it replaced
// — including under mixed AnySource and exact receives, where a naive
// per-key index would return an arbitrary queue's head instead of the
// oldest compatible deposit.

import (
	"errors"
	"math/rand"
	"sync"
	"testing"
)

var errWouldPark = errors.New("take would park")

// neverPark is take's park for a mailbox that must hold a match.
func neverPark(mu *sync.Mutex) error {
	mu.Unlock()
	return errWouldPark
}

func mustTake(t *testing.T, m *mailbox, src, tag int) envelope {
	t.Helper()
	e, err := m.take(src, tag, neverPark)
	if err != nil {
		t.Fatalf("take(%d, %d): %v", src, tag, err)
	}
	return e
}

// TestMailboxFIFOPerPair pins non-overtaking order within one (src, tag).
func TestMailboxFIFOPerPair(t *testing.T) {
	m := newMailbox()
	for i := byte(0); i < 3; i++ {
		m.deposit(envelope{src: 1, tag: 5, data: []byte{i}})
	}
	for want := byte(0); want < 3; want++ {
		if got := mustTake(t, m, 1, 5).data[0]; got != want {
			t.Fatalf("exact take %d: got payload %d", want, got)
		}
	}
}

// TestMailboxWildcardGlobalOrder pins that AnySource receives drain a tag's
// deposits in global deposit order across sources, interleaved with exact
// receives that consume out of the middle, and never cross tags.
func TestMailboxWildcardGlobalOrder(t *testing.T) {
	m := newMailbox()
	m.deposit(envelope{src: 1, tag: 1, data: []byte{0}}) // a
	m.deposit(envelope{src: 2, tag: 1, data: []byte{1}}) // b
	m.deposit(envelope{src: 2, tag: 2, data: []byte{2}}) // c
	m.deposit(envelope{src: 1, tag: 1, data: []byte{3}}) // d
	m.deposit(envelope{src: 3, tag: 2, data: []byte{4}}) // e

	if got := mustTake(t, m, 2, 1).data[0]; got != 1 {
		t.Fatalf("exact (2,1): got %d want 1", got)
	}
	// Oldest remaining deposit on tag 1 is a, even though b's queue was
	// touched last.
	if got := mustTake(t, m, AnySource, 1).data[0]; got != 0 {
		t.Fatalf("(AnySource, 1): got %d want 0", got)
	}
	// Tag 2's oldest is c, deposited before d.
	if got := mustTake(t, m, AnySource, 2).data[0]; got != 2 {
		t.Fatalf("(AnySource, 2): got %d want 2", got)
	}
	if got := mustTake(t, m, AnySource, 1).data[0]; got != 3 {
		t.Fatalf("(AnySource, 1): got %d want 3", got)
	}
	if got := mustTake(t, m, AnySource, 2).data[0]; got != 4 {
		t.Fatalf("(AnySource, 2): got %d want 4", got)
	}
}

// flatTake is the reference semantics: scan a single queue in deposit order
// and remove the first compatible message — exactly the pre-index mailbox.
func flatTake(queue *[]envelope, src, tag int) (envelope, bool) {
	for i, e := range *queue {
		if (src == AnySource || e.src == src) && e.tag == tag {
			*queue = append((*queue)[:i], (*queue)[i+1:]...)
			return e, true
		}
	}
	return envelope{}, false
}

// TestMailboxMatchesFlatReference drives the indexed mailbox and the flat
// reference with an identical random deposit/take schedule and requires
// byte-identical matches throughout.
func TestMailboxMatchesFlatReference(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		m := newMailbox()
		var ref []envelope
		var id byte
		for step := 0; step < 400; step++ {
			if len(ref) == 0 || rng.Intn(2) == 0 {
				e := envelope{src: rng.Intn(12), tag: rng.Intn(4), data: []byte{id}}
				id++
				m.deposit(e)
				ref = append(ref, e)
				continue
			}
			// Pick a pattern guaranteed to match: derive it from a random
			// buffered message, with the source wildcarded half the time.
			probe := ref[rng.Intn(len(ref))]
			src, tag := probe.src, probe.tag
			if rng.Intn(2) == 0 {
				src = AnySource
			}
			want, ok := flatTake(&ref, src, tag)
			if !ok {
				t.Fatalf("trial %d step %d: reference found no match", trial, step)
			}
			got := mustTake(t, m, src, tag)
			if got.src != want.src || got.tag != want.tag || got.data[0] != want.data[0] {
				t.Fatalf("trial %d step %d take(%d, %d): got (src=%d tag=%d id=%d) want (src=%d tag=%d id=%d)",
					trial, step, src, tag, got.src, got.tag, got.data[0], want.src, want.tag, want.data[0])
			}
		}
	}
}
