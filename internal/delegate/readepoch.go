package delegate

// Delegated collective reads: the server-side half of tcio's two-phase
// read exchange. When the tier is delegated and the tcio CollectiveRead
// knob is armed, clients stop shipping one OpRead per domain piece and
// instead queue pieces locally; Fetch becomes the collective point where
// every client ships its read-intent vector (fixed-width off/len runs)
// to every server in one OpReadIntent. A server holds the intents until
// all clients have contributed — the same static quorum flush epochs use
// — then closes the read epoch: it merges the union of requested blocks
// across clients, stages each block once through the hot-block cache,
// fetches the missing blocks in one coalesced ReadExtents batch
// (mirroring closeEpoch's write shape), and replies to each client in
// sorted rank order. N clients re-reading the same blocks cost one file
// system fetch, not N.
//
// An intent is extent run records, each run inside one domain block. It
// arrives off the wire, so the server checks every run (server.owned) before
// it indexes with it. A malformed one is its sender's failure, not the
// epoch's: that client's reply carries the error, it still counts toward
// the quorum, and the other clients are served.

import (
	"fmt"
	"slices"

	"github.com/tcio/tcio/internal/extent"
	"github.com/tcio/tcio/internal/mpi"
	"github.com/tcio/tcio/internal/mutate"
	"github.com/tcio/tcio/internal/storage"
	"github.com/tcio/tcio/internal/trace"
)

// readIntent stages one client's intent vector and closes the read epoch
// once every client has contributed. Like flush markers, intents ride the
// same per-client FIFO stream as data requests, so the quorum needs no
// extra handshake.
func (s *server) readIntent(req *mpi.RPCRequest) error {
	h, err := s.lookup(req)
	if err != nil {
		return err
	}
	if _, dup := h.intents[req.Client]; dup {
		return fmt.Errorf("delegate: double read intent for handle %d from rank %d",
			req.Handle, req.Client)
	}
	runs, err := extent.DecodeRuns(nil, req.Data)
	if err != nil {
		err = fmt.Errorf("delegate: read intent: %w", err)
	}
	for i := 0; err == nil && i < len(runs); i++ {
		_, err = s.owned("read intent", runs[i])
	}
	if err != nil {
		runs = nil
	}
	h.intents[req.Client] = intent{runs: runs, seq: req.Seq, err: err}
	if len(h.intents) < s.clients {
		return nil
	}
	return s.closeReadEpoch(h)
}

// closeReadEpoch merges the epoch's intents, stages each requested block
// once through the cache, fetches the rest in one coalesced batch, and
// scatters per-client replies in sorted rank order. The union fetch is
// the server's own doing — no single client asked for it — so it runs on
// the server's drain client and carries the server's fault identity,
// which also makes the fetch deterministic regardless of intent arrival
// order.
func (s *server) closeReadEpoch(h *handleFile) error {
	// The epoch's block union, ascending, in one sort; bufs[i] stages blks[i].
	var blks []int64
	for _, in := range h.intents {
		for _, r := range in.runs {
			blks = append(blks, s.domains.Segment(r.Off))
		}
	}
	slices.Sort(blks)
	blks = slices.Compact(blks)
	bufs := make([][]byte, len(blks))

	// Stage every block: cache hits serve in place, everything else — misses,
	// dirty-bypassed blocks, the disarmed tier — joins one fetch batch.
	var fetched []int
	var reqs []storage.Request
	for i, blk := range blks {
		s.stats.CollectiveBlocks++
		key := blockKey{name: h.name, blk: blk}
		if s.cache != nil && s.dirty[key] == 0 {
			if ent, ok := s.cache.get(key); ok {
				s.c.AdvanceTo(ent.ready)
				s.stats.CacheHits++
				s.traceCacheServe(s.domains.SegSize, blk)
				bufs[i] = ent.buf
				continue
			}
		}
		if s.cache != nil {
			s.stats.CacheMisses++
		}
		bufs[i] = s.c.GetBuf(int(s.domains.SegSize))
		fetched = append(fetched, i)
		reqs = append(reqs, storage.Request{
			Off: s.domains.SegStart(blk), Data: bufs[i], Tag: fmt.Sprintf("blk=%d", blk),
		})
	}
	var fillErr error
	if len(reqs) > 0 {
		if mutate.Enabled(mutate.DelegateCacheStaleServe) && s.cache != nil {
			// Planted bug: "fill" the missing blocks without ever reading
			// the file system, so replies and later hits serve zeros.
			for _, r := range reqs {
				clear(r.Data)
			}
		} else {
			res, err := h.drain.ReadExtents("delegate-colread", trace.KindFetch, reqs)
			fillErr = err
			s.count(res)
		}
	}
	s.stats.ReadEpochs++

	clients := make([]int, 0, len(h.intents))
	for cl := range h.intents {
		clients = append(clients, cl)
	}
	slices.Sort(clients)
	for _, cl := range clients {
		in := h.intents[cl]
		rep := &mpi.RPCReply{Seq: in.seq}
		var data []byte
		if in.err != nil {
			rep.Code, rep.Err = mpi.RPCErrGeneric, in.err.Error()
		} else if fillErr != nil {
			rep.Code, rep.Err = errCode(fillErr), fillErr.Error()
		} else {
			data = s.c.GetBuf(int(extent.Total(in.runs)))
			var pos int64
			for _, r := range in.runs {
				i, _ := slices.BinarySearch(blks, s.domains.Segment(r.Off))
				rel := r.Off - s.domains.SegStart(blks[i])
				pos += int64(copy(data[pos:], bufs[i][rel:rel+r.Len]))
			}
			rep.OK, rep.Data = true, data
		}
		err := s.c.SendReply(cl, tagReply, rep)
		if data != nil {
			s.c.Recycle(data)
		}
		if err != nil {
			return err
		}
	}
	// Retire the fetched buffers only now that no reply references any
	// block buffer: inserting earlier could evict — and recycle — a
	// hit-path buffer a later client's reply still reads from.
	for _, i := range fetched {
		key := blockKey{name: h.name, blk: blks[i]}
		if s.cache != nil && fillErr == nil && s.dirty[key] == 0 {
			// The server already stands at the batch's end: nothing in flight.
			s.admit(key, bufs[i], s.c.Now())
			continue
		}
		s.c.Recycle(bufs[i])
	}
	clear(h.intents)
	return nil
}
