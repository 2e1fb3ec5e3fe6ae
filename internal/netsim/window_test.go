package netsim

import (
	"math/rand"
	"sync"
	"testing"

	"github.com/tcio/tcio/internal/simtime"
)

// refWindow is the port structure the min-heap replaced, kept as the oracle:
// a flat list of open windows' ends, filtered and copied on every call.
type refWindow struct{ ends []simtime.Time }

func (rw *refWindow) refOverlapAt(t, end simtime.Time) int {
	live := rw.ends[:0]
	for _, e := range rw.ends {
		if e > t {
			live = append(live, e)
		}
	}
	rw.ends = append(live, end)
	return len(live)
}

// TestOverlapAtMatchesLinearScan drives the heap and the old scan with the
// same random call sequences and demands the same count from every call.
func TestOverlapAtMatchesLinearScan(t *testing.T) {
	const sequences, calls = 2500, 120
	for seq := 0; seq < sequences; seq++ {
		rng := rand.New(rand.NewSource(int64(seq)))
		var fw flowWindow
		var ref refWindow
		var now, lastEnd simtime.Time
		for i := 0; i < calls; i++ {
			// Ranks reach the port out of virtual-time order: t wanders
			// forward on average but often steps back.
			switch rng.Intn(5) {
			case 0:
				now -= simtime.Time(rng.Intn(50))
			case 1: // exactly where the last window ends: it must read closed
				now = lastEnd
			case 2: // the same instant again
			default:
				now += simtime.Time(rng.Intn(40))
			}
			end := now // a zero-length window one time in six
			if rng.Intn(6) > 0 {
				end += simtime.Time(rng.Intn(200))
			}
			lastEnd = end
			got, want := fw.overlapAt(now, end), ref.refOverlapAt(now, end)
			if got != want {
				t.Fatalf("seq %d call %d: overlapAt(%d, %d) = %d, linear scan says %d", seq, i, now, end, got, want)
			}
		}
	}
}

// TestOverlapAtPrunesEndEqualT pins the boundary by hand: a window is open
// while end > t, so at t == end it is gone, and it stays gone.
func TestOverlapAtPrunesEndEqualT(t *testing.T) {
	var fw flowWindow
	fw.overlapAt(0, 10)
	fw.overlapAt(0, 20)
	if got := fw.overlapAt(9, 30); got != 2 {
		t.Fatalf("at t=9: %d open, want 2", got)
	}
	if got := fw.overlapAt(10, 40); got != 2 { // 20 and 30; 10 closed
		t.Fatalf("at t=10: %d open, want 2", got)
	}
	if got := fw.overlapAt(5, 50); got != 3 { // a closed window stays closed
		t.Fatalf("back at t=5: %d open, want 3", got)
	}
}

func TestOverlapAtSteadyStateAllocatesNothing(t *testing.T) {
	var fw flowWindow
	now := simtime.Time(0)
	step := func() {
		now++
		fw.overlapAt(now, now+1024) // holds the port 1024 windows deep
	}
	for i := 0; i < 4096; i++ {
		step()
	}
	if allocs := testing.AllocsPerRun(1000, step); allocs != 0 {
		t.Fatalf("overlapAt allocates %v times per call at steady state", allocs)
	}
}

// TestPeakOverlapIsMaxObserved hits several ingress ports from many
// goroutines at one virtual instant. Nothing closes, so the k-th transfer
// into a port observes k-1 open windows, every transfer into the deepest
// port raises the peak, and a lost update from a shallower port shows.
func TestPeakOverlapIsMaxObserved(t *testing.T) {
	const (
		rounds    = 50
		senders   = 16
		receivers = 4
		msgs      = 24 // per sender, dealt evenly over the receivers
	)
	for round := 0; round < rounds; round++ {
		net := New(senders+receivers, quietConfig())
		start := make(chan struct{})
		var wg sync.WaitGroup
		for g := 0; g < senders; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				<-start
				for i := 0; i < msgs; i++ {
					net.Transfer(g, senders+(g+i)%receivers, 5000, 0, OneSided)
				}
			}(g)
		}
		close(start)
		wg.Wait()
		const want = senders*msgs/receivers - 1
		if got := net.Stats().PeakOverlap; got != want {
			t.Fatalf("round %d: PeakOverlap = %d, largest overlap a Transfer observed = %d", round, got, want)
		}
	}
}
