package netsim

import (
	"math/rand"
	"testing"

	"github.com/tcio/tcio/internal/faults"
	"github.com/tcio/tcio/internal/simtime"
)

// chaosNet is a small network with both interconnect fault sites armed and
// a threshold low enough that bursts pay the incast penalty.
func chaosNet(nodes int, seed int64) *Network {
	cfg := DefaultConfig()
	cfg.IncastThreshold, cfg.IncastScale = 3, 2
	cfg.Faults = faults.New(seed).
		Set(faults.SiteNetSetup, faults.Rule{Prob: 0.2}).
		Set(faults.SiteNetSlow, faults.Rule{Prob: 0.15, Factor: 3})
	return New(nodes, cfg)
}

// TestPostMatchesTransferPerMessage posts seeded random bursts on one
// network and makes one Transfer per message, in the same order, on a twin:
// every arrival, every Stats field and every fault count must agree. The
// bursts mix same-node copies, zero-byte messages (a zero-length window)
// and departures and sizes drawn from small sets, so windows end at tied
// instants; some bursts run a port's messages consecutively, as an
// all-to-all's source does.
func TestPostMatchesTransferPerMessage(t *testing.T) {
	const nodes = 5
	sizes := []int64{0, 0, 5000, 5000, 10000, 123457}
	var seen Stats // what the bursts exercised, summed over seeds
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		posted, single := chaosNet(nodes, seed), chaosNet(nodes, seed)
		var msgs []Msg
		for burst := 0; burst < 6; burst++ {
			base := simtime.Time(rng.Intn(4)) * simtime.Time(simtime.Microsecond)
			msgs = msgs[:0]
			src := rng.Intn(nodes)
			for i, n := 0, 1+rng.Intn(40); i < n; i++ {
				if rng.Intn(3) > 0 { // otherwise keep the source: a run
					src = rng.Intn(nodes)
				}
				msgs = append(msgs, Msg{Src: src, Dst: rng.Intn(nodes), Size: sizes[rng.Intn(len(sizes))],
					Depart: base + simtime.Time(rng.Intn(3))*simtime.Time(simtime.Microsecond)})
			}
			class := Class(burst % 2)
			posted.Post(msgs, class)
			for i, m := range msgs {
				if got := single.Transfer(m.Src, m.Dst, m.Size, m.Depart, class); got != m.Arrival {
					t.Fatalf("seed %d burst %d message %d (%d->%d, %d B at %d): Post arrives %d, Transfer %d",
						seed, burst, i, m.Src, m.Dst, m.Size, m.Depart, m.Arrival, got)
				}
			}
		}
		if p, s := posted.Stats(), single.Stats(); p != s {
			t.Fatalf("seed %d: Stats after Post\n%+v\nafter Transfer\n%+v", seed, p, s)
		}
		if p, s := posted.cfg.Faults.CountsString(), single.cfg.Faults.CountsString(); p != s {
			t.Fatalf("seed %d: injections after Post %s, after Transfer %s", seed, p, s)
		}
		st := posted.Stats()
		seen.LocalMessages += st.LocalMessages
		seen.CongestedMsgs += st.CongestedMsgs
		seen.SetupRetries += st.SetupRetries
		seen.SlowTransfers += st.SlowTransfers
		seen.OneSidedMsgs += st.OneSidedMsgs
		seen.TwoSidedMsgs += st.TwoSidedMsgs
	}
	if seen.LocalMessages == 0 || seen.CongestedMsgs == 0 || seen.SetupRetries == 0 ||
		seen.SlowTransfers == 0 || seen.OneSidedMsgs == 0 || seen.TwoSidedMsgs == 0 {
		t.Fatalf("the bursts left a path unexercised: %+v", seen)
	}
}

// TestPostSteadyStateAllocatesNothing: once the port heaps have reached the
// burst's depth, posting a burst allocates nothing.
func TestPostSteadyStateAllocatesNothing(t *testing.T) {
	const nodes = 4
	net := New(nodes, DefaultConfig())
	msgs := make([]Msg, 4*nodes)
	now := simtime.Time(0)
	post := func() {
		now += simtime.Time(simtime.Microsecond)
		for i := range msgs {
			msgs[i] = Msg{Src: i / nodes, Dst: i % nodes, Size: 64 << 10, Depart: now}
		}
		net.Post(msgs, TwoSided)
	}
	for i := 0; i < 4096; i++ {
		post()
	}
	if allocs := testing.AllocsPerRun(1000, post); allocs != 0 {
		t.Fatalf("Post allocates %v times per burst at steady state", allocs)
	}
}
