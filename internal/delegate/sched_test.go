package delegate

import (
	"math/rand"
	"testing"

	"github.com/tcio/tcio/internal/mpi"
)

// refDRR is an independent deficit-round-robin oracle: the textbook
// formulation over a list of per-client queues, written without the
// incremental bookkeeping the production scheduler uses. Both must emit
// identical service orders for identical arrivals.
type refDRR struct {
	quantum int64
	ranks   []int
	queues  map[int][]*mpi.RPCRequest
	deficit map[int]int64
	n       int
}

func newRefDRR(quantum int64) *refDRR {
	return &refDRR{quantum: quantum, queues: make(map[int][]*mpi.RPCRequest), deficit: make(map[int]int64)}
}

func (d *refDRR) push(rank int, req *mpi.RPCRequest) {
	if _, ok := d.queues[rank]; !ok {
		d.ranks = append(d.ranks, rank)
		for i := len(d.ranks) - 1; i > 0 && d.ranks[i-1] > d.ranks[i]; i-- {
			d.ranks[i-1], d.ranks[i] = d.ranks[i], d.ranks[i-1]
		}
	}
	d.queues[rank] = append(d.queues[rank], req)
	d.n++
}

func (d *refDRR) round() []*mpi.RPCRequest {
	var out []*mpi.RPCRequest
	for d.n > 0 && len(out) == 0 {
		for _, r := range d.ranks {
			q := d.queues[r]
			if len(q) == 0 {
				continue
			}
			d.deficit[r] += d.quantum
			for len(q) > 0 && q[0].Len <= d.deficit[r] {
				d.deficit[r] -= q[0].Len
				out = append(out, q[0])
				q = q[1:]
				d.n--
			}
			d.queues[r] = q
			if len(q) == 0 {
				d.deficit[r] = 0
			}
		}
	}
	return out
}

// TestDRRMatchesOracle feeds identical randomized arrival patterns to the
// production scheduler and the reference oracle, interleaving pushes and
// rounds, and demands identical service orders throughout.
func TestDRRMatchesOracle(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		quantum := int64(1 + rng.Intn(4096))
		got, want := newDRR(quantum), newRefDRR(quantum)
		clients := 1 + rng.Intn(6)
		for step := 0; step < 200; step++ {
			if rng.Intn(3) > 0 || got.pending() == 0 {
				rank := rng.Intn(clients) * 2 // sparse ranks
				req := &mpi.RPCRequest{Client: rank, Seq: int64(step), Len: int64(1 + rng.Intn(8192))}
				got.push(rank, *req)
				want.push(rank, req)
				continue
			}
			g, w := got.round(), want.round()
			if len(g) != len(w) {
				t.Fatalf("seed %d step %d: round served %d, oracle %d", seed, step, len(g), len(w))
			}
			for i := range g {
				if g[i].Client != w[i].Client || g[i].Seq != w[i].Seq {
					t.Fatalf("seed %d step %d: service order diverges at %d: got (c%d seq%d), oracle (c%d seq%d)",
						seed, step, i, g[i].Client, g[i].Seq, w[i].Client, w[i].Seq)
				}
			}
		}
		for got.pending() > 0 {
			g, w := got.round(), want.round()
			if len(g) != len(w) {
				t.Fatalf("seed %d drain: served %d, oracle %d", seed, len(g), len(w))
			}
			for i := range g {
				if g[i].Client != w[i].Client || g[i].Seq != w[i].Seq {
					t.Fatalf("seed %d drain diverges", seed)
				}
			}
		}
		if want.n != 0 {
			t.Fatalf("seed %d: oracle still holds %d requests", seed, want.n)
		}
	}
}

// TestDRRFairnessAndOrder pins the two contracts the server relies on:
// per-client FIFO is preserved, and a client issuing small reads is
// served every round even while another client's large reads drain.
func TestDRRFairnessAndOrder(t *testing.T) {
	const quantum = 1024
	d := newDRR(quantum)
	// Client 0: four large reads; client 1: four small reads.
	for i := 0; i < 4; i++ {
		d.push(0, mpi.RPCRequest{Client: 0, Seq: int64(i), Len: 4096})
		d.push(1, mpi.RPCRequest{Client: 1, Seq: int64(i), Len: 64})
	}
	var order []mpi.RPCRequest
	rounds := 0
	for d.pending() > 0 {
		batch := d.round()
		if len(batch) == 0 {
			t.Fatal("non-empty scheduler served nothing")
		}
		order = append(order, batch...)
		rounds++
	}
	// All of client 1's small reads must complete before client 0's first
	// large read has earned its 4 quanta of deficit.
	lastSmall, firstLarge := -1, len(order)
	seq := map[int]int64{}
	for i, req := range order {
		if want := seq[req.Client]; req.Seq != want {
			t.Fatalf("client %d served seq %d before %d", req.Client, req.Seq, want)
		}
		seq[req.Client]++
		if req.Client == 1 {
			lastSmall = i
		} else if i < firstLarge {
			firstLarge = i
		}
	}
	if lastSmall > firstLarge {
		t.Fatalf("small reads starved: last small at %d, first large at %d", lastSmall, firstLarge)
	}
	if rounds < 4 {
		t.Fatalf("large reads served in %d rounds; quantum not enforced", rounds)
	}
}
