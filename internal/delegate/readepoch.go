package delegate

// Delegated collective reads: the server-side half of tcio's two-phase
// read exchange. When the tier is delegated and the tcio CollectiveRead
// knob is armed, clients stop shipping one OpRead per domain piece and
// instead queue pieces locally; Fetch becomes the collective point where
// every client ships its read-intent vector (fixed-width off/len runs)
// to every server in one OpReadIntent. A server holds each vector in the
// handle's quorum until all clients have contributed — the quorum flush
// epochs use — then closes the read epoch: it merges the union of requested
// blocks across clients, stages each block once through the hot-block
// cache, fetches the missing blocks in one posted batch (server.fetch, the
// line fill's), and replies to each client in ascending rank order. N
// clients re-reading the same blocks cost one file system fetch, not N.
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
	"github.com/tcio/tcio/internal/simtime"
)

// readIntent counts one client's intent vector toward its handle's read
// epoch. Like a flush marker, a read intent rides the same per-client FIFO
// stream as data requests, so the quorum needs no extra handshake.
func (s *server) readIntent(req *mpi.RPCRequest) error {
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
	return s.contribute(req, contribution{runs: runs, seq: req.Seq, err: err}, s.closeReadEpoch)
}

// closeReadEpoch merges the epoch's intent vectors, stages each requested
// block once through the cache, fetches the rest in one batch, and scatters
// per-client replies in ascending rank order. The server waits for none of
// it: each reply departs when the latest of its own blocks lands, and each
// fetched block is cached with its own completion. The union fetch is the
// server's own doing — no single client asked for it.
func (s *server) closeReadEpoch(h *handleFile) error {
	// The epoch's block union, ascending, in one sort; bufs[i] stages blks[i],
	// whose bytes exist from ready[i] on.
	var blks []int64
	for _, in := range h.quorum {
		for _, r := range in.runs {
			blks = append(blks, s.domains.Segment(r.Off))
		}
	}
	slices.Sort(blks)
	blks = slices.Compact(blks)
	bufs, ready := make([][]byte, len(blks)), make([]simtime.Time, len(blks))

	// Stage every block: cache hits serve in place, everything else — misses,
	// dirty-bypassed blocks, the disarmed tier — joins one fetch batch.
	var fetched []int  // indexes into blks
	var missed []int64 // the blocks at those indexes
	for i, blk := range blks {
		s.stats.CollectiveBlocks++
		key := blockKey{name: h.name, blk: blk}
		if s.cache != nil && s.dirty[key] == 0 {
			if ent, ok := s.cache.get(key); ok {
				s.serveHit(ent, s.domains.SegSize)
				bufs[i], ready[i] = ent.buf, ent.ready
				continue
			}
		}
		if s.cache != nil {
			s.stats.CacheMisses++
		}
		fetched = append(fetched, i)
		missed = append(missed, blk)
	}
	var fillErr error
	if len(missed) > 0 {
		fbufs, done, _, err := s.fetch(h, "delegate-colread", missed)
		for j, i := range fetched {
			bufs[i], ready[i] = fbufs[j], done[j]
		}
		fillErr = err
	}
	s.stats.ReadEpochs++

	err := s.answer(h, func(cl int, in contribution) error {
		rep := &mpi.RPCReply{Seq: in.seq}
		for _, r := range in.runs {
			i, _ := slices.BinarySearch(blks, s.domains.Segment(r.Off))
			rep.Ready = max(rep.Ready, ready[i])
		}
		if in.err != nil {
			rep.Code, rep.Err = mpi.RPCErrGeneric, in.err.Error()
		} else if fillErr != nil {
			rep.Code, rep.Err = errCode(fillErr), fillErr.Error()
		} else {
			data := s.c.GetBuf(int(extent.Total(in.runs)))
			defer s.c.Recycle(data)
			var pos int64
			for _, r := range in.runs {
				i, _ := slices.BinarySearch(blks, s.domains.Segment(r.Off))
				rel := r.Off - s.domains.SegStart(blks[i])
				pos += int64(copy(data[pos:], bufs[i][rel:rel+r.Len]))
			}
			rep.OK, rep.Data = true, data
		}
		return s.c.SendReply(cl, tagReply, rep)
	})
	if err != nil {
		return err
	}
	// Retire the fetched buffers only now that no reply references any
	// block buffer: inserting earlier could evict — and recycle — a
	// hit-path buffer a later client's reply still reads from.
	for _, i := range fetched {
		key := blockKey{name: h.name, blk: blks[i]}
		if s.cache != nil && fillErr == nil && s.dirty[key] == 0 {
			s.admit(key, bufs[i], ready[i])
			continue
		}
		s.c.Recycle(bufs[i])
	}
	return nil
}
