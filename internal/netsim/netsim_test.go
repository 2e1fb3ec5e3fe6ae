package netsim

import (
	"sync"
	"testing"

	"github.com/tcio/tcio/internal/simtime"
)

func quietConfig() Config {
	cfg := DefaultConfig()
	cfg.IncastThreshold = 1 << 30 // effectively disable congestion
	return cfg
}

func TestTransferBasicCost(t *testing.T) {
	cfg := quietConfig()
	net := New(2, cfg)
	const size = 5_000_000 // at 5 GB/s -> 1 ms on the wire
	arrive := net.Transfer(0, 1, size, 0, TwoSided)
	want := simtime.Time(cfg.SetupTwoSided + simtime.Millisecond + cfg.Latency)
	if arrive != want {
		t.Fatalf("arrive = %v, want %v", arrive, want)
	}
}

func TestOneSidedSetupCheaper(t *testing.T) {
	cfg := quietConfig()
	a := New(2, cfg).Transfer(0, 1, 1000, 0, TwoSided)
	b := New(2, cfg).Transfer(0, 1, 1000, 0, OneSided)
	if b >= a {
		t.Fatalf("one-sided arrive %v not cheaper than two-sided %v", b, a)
	}
}

func TestLocalTransferSkipsNIC(t *testing.T) {
	cfg := quietConfig()
	net := New(2, cfg)
	local := net.Transfer(0, 0, 1_000_000, 0, TwoSided)
	remote := New(2, cfg).Transfer(0, 1, 1_000_000, 0, TwoSided)
	if local >= remote {
		t.Fatalf("local transfer %v should beat remote %v", local, remote)
	}
	st := net.Stats()
	if st.LocalMessages != 1 {
		t.Fatalf("LocalMessages = %d, want 1", st.LocalMessages)
	}
}

func TestEgressSerialization(t *testing.T) {
	cfg := quietConfig()
	net := New(3, cfg)
	// Two messages from node 0 departing together must leave back to back.
	a1 := net.Transfer(0, 1, 5_000_000, 0, TwoSided)
	a2 := net.Transfer(0, 2, 5_000_000, 0, TwoSided)
	if a2 < a1.Add(simtime.Millisecond) {
		t.Fatalf("second egress %v should queue behind first %v", a2, a1)
	}
}

func TestIncastPenaltyInflatesBurst(t *testing.T) {
	cfg := DefaultConfig()
	cfg.IncastThreshold = 2
	cfg.IncastScale = 1
	cfg.IncastExponent = 1.5

	// Burst: many nodes hit node 0 at the same virtual instant.
	burst := New(33, cfg)
	var last simtime.Time
	for src := 1; src <= 32; src++ {
		if got := burst.Transfer(src, 0, 1_000_000, 0, TwoSided); got > last {
			last = got
		}
	}

	// Paced: same 32 messages arriving far apart in virtual time.
	paced := New(33, cfg)
	var pacedTotal simtime.Duration
	gap := simtime.Time(0)
	for src := 1; src <= 32; src++ {
		end := paced.Transfer(src, 0, 1_000_000, gap, TwoSided)
		pacedTotal += end.Sub(gap)
		gap = gap.Add(10 * simtime.Millisecond)
	}

	burstStats := burst.Stats()
	if burstStats.CongestedMsgs == 0 {
		t.Fatal("burst produced no congested messages")
	}
	if pacedStats := paced.Stats(); pacedStats.CongestedMsgs != 0 {
		t.Fatalf("paced transfers hit congestion: %d msgs", pacedStats.CongestedMsgs)
	}
	// The burst's last arrival must exceed the sum of 32 uncongested
	// service times (1MB at 5GB/s = 200us each -> 6.4ms serialized).
	if last < simtime.Time(10*simtime.Millisecond) {
		t.Fatalf("burst finished suspiciously fast: %v", last)
	}
}

func TestMaxPenaltyCaps(t *testing.T) {
	cfg := DefaultConfig()
	cfg.IncastThreshold = 0
	cfg.IncastScale = 1e-9
	cfg.IncastExponent = 3
	cfg.MaxPenalty = 2
	net := New(3, cfg)
	net.Transfer(1, 0, 1_000_000, 0, TwoSided)
	end := net.Transfer(2, 0, 1_000_000, 0, TwoSided)
	// Second message: queue behind first (200us service, 2x penalty = 400us
	// each). Without the cap this would be astronomically large.
	if end > simtime.Time(5*simtime.Millisecond) {
		t.Fatalf("penalty cap not applied, arrive = %v", end)
	}
}

func TestStatsCounting(t *testing.T) {
	net := New(2, quietConfig())
	net.Transfer(0, 1, 100, 0, TwoSided)
	net.Transfer(0, 1, 200, 0, OneSided)
	net.Transfer(1, 1, 50, 0, OneSided)
	st := net.Stats()
	if st.Messages != 3 || st.Bytes != 350 {
		t.Fatalf("Messages=%d Bytes=%d", st.Messages, st.Bytes)
	}
	if st.OneSidedMsgs != 2 || st.TwoSidedMsgs != 1 {
		t.Fatalf("class counts: one=%d two=%d", st.OneSidedMsgs, st.TwoSidedMsgs)
	}
}

// TestStatsSumPerNodeCounters: the traffic counters live in the source
// nodes, so Stats must still equal the per-message sums after a concurrent
// burst from every node.
func TestStatsSumPerNodeCounters(t *testing.T) {
	const nodes = 8
	cfg := quietConfig()
	net := New(nodes, cfg)
	var wg sync.WaitGroup
	tallies := make([]Stats, 64)
	for g := range tallies {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			want := &tallies[g]
			for i := 0; i < 50; i++ {
				src, dst, size, class := g%nodes, (g+i)%nodes, int64(i*100), Class(i%2)
				net.Transfer(src, dst, size, simtime.Time(i), class)
				want.Messages++
				want.Bytes += size
				if src == dst {
					want.LocalMessages++
				}
				if class == OneSided {
					want.OneSidedMsgs++
					want.SetupTimeTotal += cfg.SetupOneSided
				} else {
					want.TwoSidedMsgs++
					want.SetupTimeTotal += cfg.SetupTwoSided
				}
			}
		}(g)
	}
	wg.Wait()
	var want Stats
	for _, s := range tallies {
		want.Messages += s.Messages
		want.Bytes += s.Bytes
		want.LocalMessages += s.LocalMessages
		want.OneSidedMsgs += s.OneSidedMsgs
		want.TwoSidedMsgs += s.TwoSidedMsgs
		want.SetupTimeTotal += s.SetupTimeTotal
	}
	got := net.Stats()
	want.PeakOverlap = got.PeakOverlap // a scheduling fact
	if got != want {
		t.Fatalf("Stats after the burst:\n got %+v\nwant %+v", got, want)
	}

	// Congestion is charged to the sender: seven nodes each send one
	// message into node 0 at the same instant, the k-th joining k open
	// windows, so those past the threshold are congested.
	cfg.IncastThreshold = 2
	net = New(nodes, cfg)
	for src := 1; src < nodes; src++ {
		net.Transfer(src, 0, 1000, 0, TwoSided)
	}
	if got := net.Stats().CongestedMsgs; got != nodes-1-3 {
		t.Fatalf("CongestedMsgs = %d, want %d", got, nodes-1-3)
	}
}

func TestTransferPanicsOnBadNode(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-range node")
		}
	}()
	New(2, quietConfig()).Transfer(0, 5, 10, 0, TwoSided)
}

func TestClassString(t *testing.T) {
	if TwoSided.String() != "two-sided" || OneSided.String() != "one-sided" {
		t.Fatal("Class.String wrong")
	}
	if Class(9).String() != "Class(9)" {
		t.Fatal("unknown class string wrong")
	}
}
