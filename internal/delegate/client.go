package delegate

// The client side of the tier: a Tier handle per client rank, and a File
// per open file. A client never touches the file system in delegation
// mode — every byte rides the request protocol to the owning server.
// One rank may hold many files open at once; handles are the ordinal of
// the collective Open call, so all clients agree on them without an
// extra collective, and each File keeps its own counters and protocol
// state.

import (
	"fmt"

	"github.com/tcio/tcio/internal/extent"
	"github.com/tcio/tcio/internal/faults"
	"github.com/tcio/tcio/internal/mpi"
	"github.com/tcio/tcio/internal/tcio"
)

// Tier is one client rank's view of the delegation tier.
type Tier struct {
	c       *mpi.Comm
	cfg     Config
	servers []int         // nil => pass-through
	domains extent.Layout // the owner map: block b lives on servers[domains.Owner(b)]

	// clientIdx is this rank's index among the client ranks; clients is
	// their count. In pass-through mode these are just Rank and Size.
	clientIdx int
	clients   int

	// seqs numbers this client's requests per server; the server sorts an
	// epoch's staged writes by (client, seq), so the pair must be unique
	// and monotone per (client, server) stream.
	seqs []int64
	// unacked counts the writes per server still holding an admission
	// credit; the server grants it back once the record is staged.
	unacked []int

	nextHandle int32
}

// Comm returns the communicator the tier runs on.
func (t *Tier) Comm() *mpi.Comm { return t.c }

// ClientIndex is this rank's dense index among the client ranks, and
// NumClients their count — the pair applications decompose work over, so
// withdrawing ranks to serve does not leave holes in the work mapping.
func (t *Tier) ClientIndex() int { return t.clientIdx }
func (t *Tier) NumClients() int  { return t.clients }

// Stats counts one client file's activity. In delegation mode the
// request counters describe protocol traffic; in pass-through mode only
// the call counters are populated (the tcio ledger lives on TCIO()).
type Stats struct {
	// Writes and WriteBytes count application write calls and their bytes.
	Writes, WriteBytes int64
	// Reads and ReadBytes count application read calls and their bytes.
	Reads, ReadBytes int64
	// WriteReqs and ReadReqs count protocol requests sent (domain pieces).
	WriteReqs, ReadReqs int64
	// CreditStalls counts writes that blocked on an exhausted admission
	// window before they could be sent — the backpressure events.
	CreditStalls int64
	// Flushes counts flush epochs this file participated in.
	Flushes int64
}

// File is one open file on one client rank.
type File struct {
	t      *Tier
	direct *tcio.File // pass-through engine; nil in delegation mode

	handle int32
	name   string
	mode   tcio.Mode
	closed bool
	stats  Stats

	// colReads queues read pieces per server index between collective
	// points; it is nil unless the handle reads collectively (delegated,
	// CollectiveRead, read mode). Fetch ships each server's list as one
	// read intent and scatters the replies.
	colReads [][]colRead
}

// colRead is one read piece (within one domain block): queued until Fetch
// when collective, or awaiting its reply.
type colRead struct {
	off int64
	dst []byte
}

// Open opens name on every server (or directly through tcio in
// pass-through mode). Open is collective over the client ranks: all
// clients must open the same files in the same order, which is what
// makes the handle — the call ordinal — agree everywhere for free.
func (t *Tier) Open(name string, mode tcio.Mode) (*File, error) {
	if mode != tcio.WriteMode && mode != tcio.ReadMode {
		return nil, fmt.Errorf("delegate: open %q: bad mode %v", name, mode)
	}
	if t.servers == nil {
		df, err := tcio.Open(t.c, name, mode, t.cfg.TCIO)
		if err != nil {
			return nil, err
		}
		return &File{t: t, direct: df, name: name, mode: mode, handle: -1}, nil
	}
	h := t.nextHandle
	t.nextHandle++
	for si := range t.servers {
		if err := t.request(si, &mpi.RPCRequest{
			Op: mpi.OpOpen, Handle: h, Off: int64(mode), Data: []byte(name),
		}); err != nil {
			return nil, err
		}
	}
	f := &File{t: t, handle: h, name: name, mode: mode}
	if t.cfg.CollectiveRead && mode == tcio.ReadMode {
		f.colReads = make([][]colRead, len(t.servers))
	}
	return f, nil
}

// request sends one protocol message to server si, consuming a sequence
// number (opens and flushes are ordered in the same per-server stream as
// writes, which is what lets the server trust FIFO delivery instead of
// acknowledging opens).
func (t *Tier) request(si int, req *mpi.RPCRequest) error {
	req.Seq = t.seqs[si]
	t.seqs[si]++
	return t.c.SendRequest(t.servers[si], tagRequest, req)
}

// reply collects server si's next reply, turning a failed one into a client
// error — resurrecting the typed exhausted-retries class from the wire code,
// so errors.Is(err, faults.ErrExhaustedRetries) holds across the protocol.
// The caller owns an OK reply and releases it once it has consumed Data.
func (f *File) reply(si int, op string) (mpi.RPCReply, error) {
	rep, err := f.t.c.RecvReply(f.t.servers[si], tagReply)
	if err != nil || rep.OK {
		return rep, err
	}
	rep.Release() // Code and Err are copies
	if rep.Code == mpi.RPCErrExhausted {
		return mpi.RPCReply{}, fmt.Errorf("delegate: %s %q: %w (server: %s)",
			op, f.name, faults.ErrExhaustedRetries, rep.Err)
	}
	return mpi.RPCReply{}, fmt.Errorf("delegate: %s %q: %s", op, f.name, rep.Err)
}

// awaitCredit blocks for one admission grant from server si.
func (t *Tier) awaitCredit(si int) error {
	grant, err := t.c.Recv(t.servers[si], tagCredit)
	if err != nil {
		return err
	}
	t.c.Recycle(grant)
	t.unacked[si]--
	return nil
}

// TCIO exposes the pass-through engine, nil in delegation mode — callers
// that want the tcio ledger read it here.
func (f *File) TCIO() *tcio.File { return f.direct }

// Stats returns the client-side counters.
func (f *File) Stats() Stats { return f.stats }

// WriteAt stores data at off. In delegation mode the data is split at
// domain-block boundaries and each piece ships to its owning server,
// blocking only when the admission window to that server is exhausted.
func (f *File) WriteAt(off int64, data []byte) error {
	if f.direct != nil {
		f.stats.Writes++
		f.stats.WriteBytes += int64(len(data))
		return f.direct.WriteAt(off, data)
	}
	switch {
	case f.closed:
		return fmt.Errorf("delegate: write to closed %q", f.name)
	case f.mode != tcio.WriteMode:
		return fmt.Errorf("delegate: write to read-mode %q", f.name)
	case off < 0:
		return fmt.Errorf("tcio: negative offset %d", off) // the pass-through engine's message
	}
	f.stats.Writes++
	f.stats.WriteBytes += int64(len(data))
	t := f.t
	return t.domains.Pieces(off, int64(len(data)), func(blk, _, at, n int64) error {
		si, _ := t.domains.Owner(blk)
		for t.unacked[si] == queueDepth {
			// Window exhausted: block for one grant from this server.
			if err := t.awaitCredit(si); err != nil {
				return err
			}
			f.stats.CreditStalls++
		}
		t.unacked[si]++
		if err := t.request(si, &mpi.RPCRequest{
			Op: mpi.OpWrite, Handle: f.handle, Off: off + at, Len: n, Data: data[at : at+n],
		}); err != nil {
			return err
		}
		f.stats.WriteReqs++
		return nil
	})
}

// ReadAt fills dst from off. Delegated reads are synchronous — dst is
// filled on return — unless collective reads are armed (delegation +
// CollectiveRead), which makes them lazy like tcio's read queue: call Fetch
// before relying on the bytes. (Pass-through keeps tcio's lazy semantics
// throughout.)
func (f *File) ReadAt(off int64, dst []byte) error {
	if f.direct != nil {
		f.stats.Reads++
		f.stats.ReadBytes += int64(len(dst))
		return f.direct.ReadAt(off, dst)
	}
	switch {
	case f.closed:
		return fmt.Errorf("delegate: read from closed %q", f.name)
	case f.mode != tcio.ReadMode:
		return fmt.Errorf("delegate: read from write-mode %q", f.name)
	case off < 0:
		return fmt.Errorf("tcio: negative offset %d", off) // the pass-through engine's message
	}
	f.stats.Reads++
	f.stats.ReadBytes += int64(len(dst))
	t := f.t
	// Collective mode queues each piece for Fetch, the collective point that
	// ships each server's pieces as one read intent. Otherwise every piece
	// ships before any reply is collected: per-(client, server) FIFO in both
	// directions means replies come back in request order, so the pieces
	// pipeline across servers instead of round-tripping one by one.
	type pending struct {
		si  int
		seq int64
		colRead
	}
	var reqs []pending
	if err := t.domains.Pieces(off, int64(len(dst)), func(blk, _, at, n int64) error {
		si, _ := t.domains.Owner(blk)
		piece, seq := colRead{off + at, dst[at : at+n]}, t.seqs[si]
		if f.colReads != nil {
			f.colReads[si] = append(f.colReads[si], piece)
		} else if err := t.request(si, &mpi.RPCRequest{Op: mpi.OpRead, Handle: f.handle, Off: piece.off, Len: n}); err != nil {
			return err
		} else {
			reqs = append(reqs, pending{si, seq, piece})
		}
		f.stats.ReadReqs++
		return nil
	}); err != nil {
		return err
	}
	for _, p := range reqs {
		if err := f.readReply(p.si, p.seq, []colRead{p.colRead}); err != nil {
			return err
		}
	}
	return nil
}

// readReply collects server si's reply to read request seq, which must carry
// exactly the pieces' bytes, and copies them into the pieces back to back.
func (f *File) readReply(si int, seq int64, pieces []colRead) error {
	rep, err := f.reply(si, "read")
	if err != nil {
		return err
	}
	defer rep.Release()
	want := 0
	for _, p := range pieces {
		want += len(p.dst)
	}
	if rep.Seq != seq || len(rep.Data) != want {
		return fmt.Errorf("delegate: read %q: reply seq %d len %d, want seq %d len %d",
			f.name, rep.Seq, len(rep.Data), seq, want)
	}
	data := rep.Data
	for _, p := range pieces {
		data = data[copy(p.dst, data):]
	}
	return nil
}

// Fetch materializes queued lazy reads. In pass-through mode it defers
// to tcio; with collective reads armed it is the collective point that
// runs one delegated read epoch (every client of the file must call it,
// even with nothing queued — the server's epoch quorum is all clients);
// otherwise delegated reads are synchronous and it is a no-op.
func (f *File) Fetch() error {
	if f.direct != nil {
		return f.direct.Fetch()
	}
	if f.colReads != nil {
		return f.fetchCollective()
	}
	return nil
}

// fetchCollective runs one collective read epoch: one intent per server
// (empty ones included, completing the quorum), then replies collected in
// server order and scattered back into the queued pieces' buffers.
func (f *File) fetchCollective() error {
	t := f.t
	for si := range t.servers {
		runs := make([]extent.Extent, len(f.colReads[si]))
		for i, p := range f.colReads[si] {
			runs[i] = extent.Extent{Off: p.off, Len: int64(len(p.dst))}
		}
		if err := t.request(si, &mpi.RPCRequest{
			Op: mpi.OpReadIntent, Handle: f.handle, Data: extent.AppendRuns(nil, runs),
		}); err != nil {
			return err
		}
	}
	for si := range t.servers {
		// Each intent is the last request this client sent its server.
		if err := f.readReply(si, t.seqs[si]-1, f.colReads[si]); err != nil {
			return err
		}
		f.colReads[si] = f.colReads[si][:0]
	}
	return nil
}

// Flush closes a write epoch: the client drains its admission windows,
// sends a flush marker to every server, and waits for each server's ack,
// which the server sends only after the epoch's sorted writes hit the
// file system. Flush is collective over the clients that opened the file
// — a server closes the epoch when it holds markers from all of them.
func (f *File) Flush() error {
	if f.direct != nil {
		return f.direct.Flush()
	}
	if f.closed {
		return fmt.Errorf("delegate: flush of closed %q", f.name)
	}
	if f.mode != tcio.WriteMode {
		return nil
	}
	t := f.t
	for si := range t.servers {
		// Reclaim outstanding grants so the window is full again; the
		// marker follows the last write in the same FIFO stream, so no
		// separate write-completion handshake is needed.
		for t.unacked[si] > 0 {
			if err := t.awaitCredit(si); err != nil {
				return err
			}
		}
		if err := t.request(si, &mpi.RPCRequest{Op: mpi.OpFlush, Handle: f.handle}); err != nil {
			return err
		}
	}
	for si := range t.servers {
		rep, err := f.reply(si, "flush")
		if err != nil {
			return err
		}
		rep.Release()
	}
	f.stats.Flushes++
	return nil
}

// Close flushes (write mode) and releases the handle on every server.
func (f *File) Close() error {
	if f.direct != nil {
		return f.direct.Close()
	}
	if f.closed {
		return fmt.Errorf("delegate: double close of %q", f.name)
	}
	if f.mode == tcio.WriteMode {
		if err := f.Flush(); err != nil {
			return err
		}
	}
	t := f.t
	if f.colReads != nil {
		// One final collective epoch materializes any still-queued reads
		// and keeps every server's quorum complete — Close is collective
		// over the clients, like Open.
		if err := f.fetchCollective(); err != nil {
			return err
		}
	}
	for si := range t.servers {
		if err := t.request(si, &mpi.RPCRequest{Op: mpi.OpClose, Handle: f.handle}); err != nil {
			return err
		}
	}
	f.closed = true
	return nil
}

// shutdown retires this client from every server's request loop.
func (t *Tier) shutdown() error {
	for si := range t.servers {
		if err := t.request(si, &mpi.RPCRequest{Op: mpi.OpShutdown}); err != nil {
			return err
		}
	}
	return nil
}
