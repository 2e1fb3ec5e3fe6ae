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
// An intent arrives off the wire, so the server checks it before it indexes
// anything with it (checkIntent). A malformed one is its sender's failure,
// not the epoch's: that client's reply carries the error, it still counts
// toward the quorum, and the other clients are served.

import (
	"fmt"
	"math"
	"sort"

	"github.com/tcio/tcio/internal/extent"
	"github.com/tcio/tcio/internal/mpi"
	"github.com/tcio/tcio/internal/mutate"
	"github.com/tcio/tcio/internal/storage"
	"github.com/tcio/tcio/internal/trace"
)

// encodeIntent packs runs into an OpReadIntent payload: extent's wire
// records, nothing else. Runs are already split at domain-block boundaries
// by the client, so each decodes back to a single-block extent.
func encodeIntent(runs []extent.Extent) []byte {
	return extent.AppendRuns(make([]byte, 0, len(runs)*extent.RunWire), runs)
}

func decodeIntent(data []byte) ([]extent.Extent, error) {
	if len(data)%extent.RunWire != 0 {
		return nil, fmt.Errorf("delegate: read intent of %d bytes", len(data))
	}
	runs := make([]extent.Extent, len(data)/extent.RunWire)
	for i := range runs {
		runs[i] = extent.RunAt(data, i)
	}
	return runs, nil
}

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
	runs, err := decodeIntent(req.Data)
	if err == nil {
		err = s.checkIntent(runs)
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

// checkIntent validates a decoded intent the way mpiio's checkRuns validates
// an exchange message: every run is non-empty, at a non-negative offset its
// length cannot overflow, and inside one domain block that this server owns
// — exactly what closeReadEpoch indexes with.
func (s *server) checkIntent(runs []extent.Extent) error {
	ds := s.cfg.domainSize()
	for _, r := range runs {
		if r.Off < 0 || r.Len <= 0 || r.Len > math.MaxInt64-r.Off {
			return fmt.Errorf("delegate: read intent run [%d,+%d) is empty, negative or overflows", r.Off, r.Len)
		}
		blk := r.Off / ds
		if (r.End()-1)/ds != blk {
			return fmt.Errorf("delegate: read intent run [%d,+%d) crosses a %d-byte domain block", r.Off, r.Len, ds)
		}
		if int(blk%int64(s.nservers)) != s.index {
			return fmt.Errorf("delegate: read intent run [%d,+%d) lies in block %d, which server %d of %d does not own",
				r.Off, r.Len, blk, s.index, s.nservers)
		}
	}
	return nil
}

// closeReadEpoch merges the epoch's intents, stages each requested block
// once through the cache, fetches the rest in one coalesced batch, and
// scatters per-client replies in sorted rank order. The union fetch is
// the server's own doing — no single client asked for it — so it runs on
// the server's drain client and carries the server's fault identity,
// which also makes the fetch deterministic regardless of intent arrival
// order.
func (s *server) closeReadEpoch(h *handleFile) error {
	ds := s.cfg.domainSize()
	need := make(map[int64]bool)
	for _, in := range h.intents {
		for _, r := range in.runs {
			need[r.Off/ds] = true
		}
	}
	blks := make([]int64, 0, len(need))
	for blk := range need {
		blks = append(blks, blk)
	}
	sort.Slice(blks, func(i, j int) bool { return blks[i] < blks[j] })

	// Stage every block: cache hits serve in place, everything else — misses,
	// dirty-bypassed blocks, the disarmed tier — joins one fetch batch.
	blkBuf := make(map[int64][]byte, len(blks))
	var fetched []int64
	var reqs []storage.Request
	for _, blk := range blks {
		s.stats.CollectiveBlocks++
		key := blockKey{name: h.name, blk: blk}
		if s.cache != nil && s.dirty[key] == 0 {
			if ent, ok := s.cache.get(key); ok {
				s.c.AdvanceTo(ent.ready)
				s.stats.CacheHits++
				s.traceCacheServe(ds, blk)
				blkBuf[blk] = ent.buf
				continue
			}
		}
		if s.cache != nil {
			s.stats.CacheMisses++
		}
		buf := s.c.GetBuf(int(ds))
		blkBuf[blk] = buf
		fetched = append(fetched, blk)
		reqs = append(reqs, storage.Request{
			Off: blk * ds, Data: buf, Tag: fmt.Sprintf("blk=%d", blk),
		})
	}
	var fillErr error
	if len(reqs) > 0 {
		if mutate.Enabled(mutate.DelegateCacheStaleServe) && s.cache != nil {
			// Planted bug: "fill" the missing blocks without ever reading
			// the file system, so replies and later hits serve zeros.
			for _, r := range reqs {
				for i := range r.Data {
					r.Data[i] = 0
				}
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
	sort.Ints(clients)
	for _, cl := range clients {
		in := h.intents[cl]
		rep := &mpi.RPCReply{Seq: in.seq}
		var data []byte
		if in.err != nil {
			rep.Code, rep.Err = mpi.RPCErrGeneric, in.err.Error()
		} else if fillErr != nil {
			rep.Code, rep.Err = errCode(fillErr), fillErr.Error()
		} else {
			var total int64
			for _, r := range in.runs {
				total += r.Len
			}
			data = s.c.GetBuf(int(total))
			var pos int64
			for _, r := range in.runs {
				blk := r.Off / ds
				rel := r.Off - blk*ds
				pos += int64(copy(data[pos:], blkBuf[blk][rel:rel+r.Len]))
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
	for _, blk := range fetched {
		buf := blkBuf[blk]
		key := blockKey{name: h.name, blk: blk}
		if s.cache != nil && fillErr == nil && s.dirty[key] == 0 {
			// The server already stands at the batch's end: nothing in flight.
			s.admit(key, buf, s.c.Now())
			continue
		}
		s.c.Recycle(buf)
	}
	clear(h.intents)
	return nil
}
