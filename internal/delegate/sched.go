package delegate

// Deficit-round-robin read scheduling. With Config.ReadQuantum > 0 a
// server no longer serves reads inline in arrival order: it queues them
// per client rank and drains them between writes one DRR round at a time.
// Each round visits the active clients in ascending rank order, grants
// each a quantum of byte deficit, and serves that client's queued reads
// FIFO while the head request fits the accumulated deficit — so a client
// issuing large sieved reads earns them over several rounds while other
// clients' small reads keep flowing every round. Per-client FIFO order is
// preserved (the reply-matching invariant the client relies on); only the
// cross-client interleaving changes, which is the point.

import "github.com/tcio/tcio/internal/mpi"

// drrClient is one client rank's pending-read state. Queued requests keep
// their staging buffers on lease; the server releases each once served.
type drrClient struct {
	deficit int64
	head    int
	q       []mpi.RPCRequest
}

func (cl *drrClient) empty() bool { return cl.head == len(cl.q) }

func (cl *drrClient) push(req mpi.RPCRequest) {
	if cl.head > 32 && cl.head*2 >= len(cl.q) {
		n := copy(cl.q, cl.q[cl.head:])
		for i := n; i < len(cl.q); i++ {
			cl.q[i] = mpi.RPCRequest{}
		}
		cl.q = cl.q[:n]
		cl.head = 0
	}
	cl.q = append(cl.q, req)
}

func (cl *drrClient) pop() mpi.RPCRequest {
	req := cl.q[cl.head]
	cl.q[cl.head] = mpi.RPCRequest{}
	cl.head++
	if cl.head == len(cl.q) {
		cl.head = 0
		cl.q = cl.q[:0]
	}
	return req
}

// drrSched holds the queued read requests of every client.
type drrSched struct {
	quantum int64
	clients []drrClient // indexed by rank: a round visits them in ascending rank order
	n       int
}

func newDRR(quantum int64) *drrSched {
	return &drrSched{quantum: quantum}
}

// push queues one read request from rank.
func (d *drrSched) push(rank int, req mpi.RPCRequest) {
	if rank >= len(d.clients) {
		d.clients = append(d.clients, make([]drrClient, rank+1-len(d.clients))...)
	}
	d.clients[rank].push(req)
	d.n++
}

// pending reports the number of queued requests.
func (d *drrSched) pending() int { return d.n }

// round runs DRR rounds until at least one request is served (so a tiny
// quantum still makes progress against a large head request) and returns
// the served requests in service order. Empty scheduler returns nil.
func (d *drrSched) round() []mpi.RPCRequest {
	var out []mpi.RPCRequest
	for d.n > 0 && len(out) == 0 {
		for r := range d.clients {
			cl := &d.clients[r]
			if cl.empty() {
				continue
			}
			cl.deficit += d.quantum
			for !cl.empty() && cl.q[cl.head].Len <= cl.deficit {
				req := cl.pop()
				cl.deficit -= req.Len
				out = append(out, req)
				d.n--
			}
			if cl.empty() {
				// An idle client must not bank deficit: fairness is
				// relative to clients with work queued right now.
				cl.deficit = 0
			}
		}
	}
	return out
}
