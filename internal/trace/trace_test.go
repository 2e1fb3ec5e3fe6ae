package trace

import (
	"sync"
	"testing"

	"github.com/tcio/tcio/internal/simtime"
)

func TestRecordAndEventsSorted(t *testing.T) {
	r := New(0)
	r.Record(Event{Rank: 1, Start: 100, Kind: KindFlush, Bytes: 10})
	r.Record(Event{Rank: 0, Start: 50, Kind: KindWrite, Bytes: 4})
	r.Record(Event{Rank: 0, Start: 100, Kind: KindWrite, Bytes: 4})
	evs := r.Events()
	if len(evs) != 3 {
		t.Fatalf("len = %d", len(evs))
	}
	if evs[0].Start != 50 {
		t.Fatalf("not sorted by time: %+v", evs[0])
	}
	if evs[1].Rank != 0 || evs[2].Rank != 1 {
		t.Fatalf("ties not broken by rank: %+v %+v", evs[1], evs[2])
	}
}

func TestCapacityBoundDrops(t *testing.T) {
	r := New(2)
	for i := 0; i < 5; i++ {
		r.Record(Event{Rank: i})
	}
	if r.Len() != 2 {
		t.Fatalf("Len = %d", r.Len())
	}
	if r.Dropped() != 3 {
		t.Fatalf("Dropped = %d", r.Dropped())
	}
}

func TestSummary(t *testing.T) {
	r := New(0)
	r.Record(Event{Kind: KindWrite, Bytes: 10, Dur: 5})
	r.Record(Event{Kind: KindWrite, Bytes: 20, Dur: 7})
	r.Record(Event{Kind: KindDrain, Bytes: 30, Dur: 1})
	s := r.Summary()
	if w := s[KindWrite]; w.Count != 2 || w.Bytes != 30 || w.Dur != 12 {
		t.Fatalf("write stats = %+v", w)
	}
	if d := s[KindDrain]; d.Count != 1 || d.Bytes != 30 {
		t.Fatalf("drain stats = %+v", d)
	}
}

func TestConcurrentRecording(t *testing.T) {
	r := New(0)
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				r.Record(Event{Rank: g, Start: simtime.Time(i)})
			}
		}(g)
	}
	wg.Wait()
	if r.Len() != 1600 {
		t.Fatalf("Len = %d", r.Len())
	}
}
