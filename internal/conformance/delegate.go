package conformance

// The delegation-tier engine driver (knob class 6): the program replayed
// through internal/delegate, with Files concurrently open files per
// client. Every file sees the same ops, but payload bytes are XORed with
// a per-file constant, so any cross-file bleed — shared staging, a
// misrouted domain piece, pooled counters — shows up as a byte or
// counter divergence against that file's own truth. ServerRanks == 0
// routes the same program through the tier's pass-through path, keeping
// the off switch inside the differential harness too.

import (
	"fmt"
	"sync"

	"github.com/tcio/tcio/internal/delegate"
	"github.com/tcio/tcio/internal/mpi"
	"github.com/tcio/tcio/internal/tcio"
	"github.com/tcio/tcio/internal/trace"
)

// fileConst is the XOR mask distinguishing file fi's payload stream.
func fileConst(fi int) byte { return byte(fi * 0x5B) }

// fileTruth derives file fi's ground truth: the base truth with every
// written byte XORed by the file constant. Unwritten bytes stay zero in
// every file, so the mask is applied through the coverage map, not to
// the whole image.
func (p *Program) fileTruth(truth []byte, fi int) []byte {
	if fileConst(fi) == 0 {
		return truth
	}
	out := append([]byte(nil), truth...)
	for i, id := range p.CoverIDs() {
		if id >= 0 {
			out[i] ^= fileConst(fi)
		}
	}
	return out
}

// delegateName is the shared file name for file index fi.
func delegateName(fi int) string { return fmt.Sprintf("conform-del-%d.dat", fi) }

// delegateRun is the delegation engine's observable outcome.
type delegateRun struct {
	err      string   // first failing phase ("" = clean)
	images   [][]byte // per-file bytes after the write phase
	fsWrites int64    // file system write requests after the write phase

	// w and r are the per-file, per-client protocol counters of the write
	// and read phases; passW holds the pass-through tcio ledgers instead
	// when ServerRanks == 0.
	w, r  [][]delegate.Stats
	passW [][]tcio.Stats
	// servers and rservers are the write and read phases' per-server
	// counters (delegation only — the phases run in separate worlds, so
	// each server reports twice).
	servers  []delegate.ServerStats
	rservers []delegate.ServerStats
	// fsReads is the read phase's file system request count (the write
	// phase's reads, if any, are subtracted out).
	fsReads int64
}

func statsGrid(files, clients int) [][]delegate.Stats {
	g := make([][]delegate.Stats, files)
	for i := range g {
		g[i] = make([]delegate.Stats, clients)
	}
	return g
}

// delegateConfig maps the program's knobs onto a delegate.Config.
func (p *Program) delegateConfig(rec *trace.Recorder) delegate.Config {
	k := p.Knobs
	return delegate.Config{
		ServerRanks:       k.ServerRanks,
		ServerCacheBlocks: k.ServerCacheBlocks,
		ReadQuantum:       k.ReadQuantum,
		CollectiveRead:    k.CollectiveRead,
		TCIO:              p.tcioConfig(rec),
	}
}

// runDelegate executes the program through the delegation tier.
func runDelegate(p *Program, truth []byte) *delegateRun {
	out := &delegateRun{}
	k := p.Knobs
	clients := p.Clients()
	truths := make([][]byte, k.Files)
	for fi := range truths {
		truths[fi] = p.fileTruth(truth, fi)
	}
	inj := p.newInjector()
	fs := p.newFS(inj)
	dcfg := p.delegateConfig(trace.New(0))

	out.w = statsGrid(k.Files, clients)
	out.passW = make([][]tcio.Stats, k.Files)
	for fi := range out.passW {
		out.passW[fi] = make([]tcio.Stats, clients)
	}
	col := &delegate.Collector{}
	wcfg := dcfg
	wcfg.Collect = col
	var mu sync.Mutex
	_, err := mpi.Run(mpi.Config{Procs: p.Procs, Machine: p.machine(), FS: fs, Faults: inj}, func(c *mpi.Comm) error {
		return delegate.Run(c, wcfg, func(tr *delegate.Tier) error {
			files := make([]*delegate.File, k.Files)
			for fi := range files {
				f, err := tr.Open(delegateName(fi), tcio.WriteMode)
				if err != nil {
					return err
				}
				files[fi] = f
			}
			for _, round := range p.WriteRounds {
				for _, op := range round.Ops {
					if op.Rank != tr.ClientIndex() {
						continue
					}
					payload := p.Payload(op)
					for fi, f := range files {
						buf := payload
						if m := fileConst(fi); m != 0 {
							buf = append([]byte(nil), payload...)
							for i := range buf {
								buf[i] ^= m
							}
						}
						if err := f.WriteAt(op.Off, buf); err != nil {
							return err
						}
					}
				}
				for _, f := range files {
					if err := f.Flush(); err != nil {
						return err
					}
				}
			}
			for fi, f := range files {
				if err := f.Close(); err != nil {
					return err
				}
				mu.Lock()
				out.w[fi][tr.ClientIndex()] = f.Stats()
				if !tr.IsDelegated() {
					out.passW[fi][tr.ClientIndex()] = f.TCIO().Stats()
				}
				mu.Unlock()
			}
			return nil
		})
	})
	if err != nil {
		out.err = err.Error()
		return out
	}
	out.servers = col.Servers()
	out.fsWrites = fs.Stats().Writes
	out.images = make([][]byte, k.Files)
	for fi := range out.images {
		out.images[fi] = fs.Open(delegateName(fi)).Snapshot()
	}

	out.r = statsGrid(k.Files, clients)
	rcol := &delegate.Collector{}
	rcfg := dcfg
	rcfg.Collect = rcol
	fsReadsBefore := fs.Stats().Reads
	_, err = mpi.Run(mpi.Config{Procs: p.Procs, Machine: p.machine(), FS: fs, Faults: inj}, func(c *mpi.Comm) error {
		return delegate.Run(c, rcfg, func(tr *delegate.Tier) error {
			files := make([]*delegate.File, k.Files)
			for fi := range files {
				f, err := tr.Open(delegateName(fi), tcio.ReadMode)
				if err != nil {
					return err
				}
				files[fi] = f
			}
			type fileCapture struct {
				fi  int
				cap readCapture
			}
			var caps []fileCapture
			for _, round := range p.ReadRounds {
				for _, op := range round.Ops {
					if op.Rank != tr.ClientIndex() {
						continue
					}
					for fi, f := range files {
						dst := make([]byte, op.Len)
						if err := f.ReadAt(op.Off, dst); err != nil {
							return err
						}
						caps = append(caps, fileCapture{fi: fi, cap: readCapture{op: op, got: dst}})
					}
				}
				// Materialize the round's lazy reads: pass-through defers to
				// tcio's fetch queue, and delegated collective reads ship the
				// round's intent epoch here. (Synchronous delegated reads make
				// this a no-op.)
				for _, f := range files {
					if err := f.Fetch(); err != nil {
						return err
					}
				}
			}
			for fi, f := range files {
				if err := f.Close(); err != nil {
					return err
				}
				mu.Lock()
				out.r[fi][tr.ClientIndex()] = f.Stats()
				mu.Unlock()
			}
			for _, fc := range caps {
				if err := verifyCaptures(truths[fc.fi], []readCapture{fc.cap}); err != nil {
					return fmt.Errorf("file %d: %w", fc.fi, err)
				}
			}
			return nil
		})
	})
	if err != nil {
		out.err = err.Error()
		return out
	}
	out.rservers = rcol.Servers()
	out.fsReads = fs.Stats().Reads - fsReadsBefore
	return out
}

// checkDelegate applies the delegation-tier oracles: per-file images,
// per-file per-client call counters, flush-epoch structure, and the
// server-side conservation laws.
func (o *Outcome) checkDelegate(p *Program, dl *delegateRun, truth []byte) {
	if dl.err != "" {
		o.diverge("delegate", "error", "%s", dl.err)
		return
	}
	for fi, img := range dl.images {
		want := p.fileTruth(truth, fi)
		n := int64(len(want))
		if int64(len(img)) > n {
			n = int64(len(img))
		}
		for i := int64(0); i < n; i++ {
			var got, exp byte
			if i < int64(len(img)) {
				got = img[i]
			}
			if i < int64(len(want)) {
				exp = want[i]
			}
			if got != exp {
				o.diverge("delegate", "image", "file %d byte %d = %#x, truth %#x", fi, i, got, exp)
				break
			}
		}
	}
	clients := p.Clients()
	var reqSum int64
	for fi := 0; fi < p.Knobs.Files; fi++ {
		for cl := 0; cl < clients; cl++ {
			ws, rs := dl.w[fi][cl], dl.r[fi][cl]
			if wantN, wantBytes := countOps(p.WriteRounds, cl); ws.Writes != wantN || ws.WriteBytes != wantBytes {
				o.diverge("delegate", "stats", "file %d client %d counted %d writes/%d bytes, program has %d/%d",
					fi, cl, ws.Writes, ws.WriteBytes, wantN, wantBytes)
			}
			if wantN, wantBytes := countOps(p.ReadRounds, cl); rs.Reads != wantN || rs.ReadBytes != wantBytes {
				o.diverge("delegate", "stats", "file %d client %d counted %d reads/%d bytes, program has %d/%d",
					fi, cl, rs.Reads, rs.ReadBytes, wantN, wantBytes)
			}
			if p.Knobs.ServerRanks > 0 {
				if want := int64(len(p.WriteRounds)) + 1; ws.Flushes != want {
					o.diverge("delegate", "stats", "file %d client %d flushed %d epochs, want %d (rounds+close)",
						fi, cl, ws.Flushes, want)
				}
				reqSum += ws.WriteReqs
			}
		}
	}
	if p.Knobs.ServerRanks == 0 {
		var fsSum int64
		for fi := range dl.passW {
			for _, s := range dl.passW[fi] {
				fsSum += s.FSWrites
			}
		}
		if fsSum != dl.fsWrites {
			o.diverge("delegate", "stats", "pass-through ranks report %d FSWrites, file system served %d",
				fsSum, dl.fsWrites)
		}
		return
	}
	if len(dl.servers) != p.Knobs.ServerRanks {
		o.diverge("delegate", "stats", "%d server reports, want %d", len(dl.servers), p.Knobs.ServerRanks)
		return
	}
	var staged, fsSum int64
	for _, s := range dl.servers {
		staged += s.StagedWrites
		fsSum += s.FSWrites
		// Every server closes one epoch per file per collective flush —
		// each write round's Flush plus Close's — even when it owns no
		// dirty domain blocks for that file.
		if want := int64(p.Knobs.Files) * int64(len(p.WriteRounds)+1); s.Epochs != want {
			o.diverge("delegate", "stats", "server %d closed %d epochs, want %d", s.Rank, s.Epochs, want)
		}
	}
	if staged != reqSum {
		o.diverge("delegate", "stats", "servers staged %d write records, clients sent %d", staged, reqSum)
	}
	if fsSum != dl.fsWrites {
		o.diverge("delegate", "stats", "servers report %d FSWrites, file system served %d", fsSum, dl.fsWrites)
	}
	o.checkDelegateRead(p, dl)
}

// checkDelegateRead applies the read-path conservation laws to the read
// phase's per-server counters (delegation only).
func (o *Outcome) checkDelegateRead(p *Program, dl *delegateRun) {
	k := p.Knobs
	if len(dl.rservers) != k.ServerRanks {
		o.diverge("delegate", "stats", "%d read-phase server reports, want %d", len(dl.rservers), k.ServerRanks)
		return
	}
	var pieceSum int64
	for fi := range dl.r {
		for _, rs := range dl.r[fi] {
			pieceSum += rs.ReadReqs
		}
	}
	var readReqs, colBlocks, fsReads int64
	for _, s := range dl.rservers {
		readReqs += s.ReadReqs
		colBlocks += s.CollectiveBlocks
		fsReads += s.FSReads
		if k.ServerCacheBlocks == 0 && s.CacheHits+s.CacheMisses+s.CacheEvictions != 0 {
			o.diverge("delegate", "stats", "server %d counted cache traffic (%d/%d/%d) with the cache disarmed",
				s.Rank, s.CacheHits, s.CacheMisses, s.CacheEvictions)
		}
		if k.ServerCacheBlocks > 0 {
			// Every served read request and every collective block is exactly
			// one hit or one miss while the cache is armed.
			if s.CacheHits+s.CacheMisses != s.ReadReqs+s.CollectiveBlocks {
				o.diverge("delegate", "stats", "server %d cache hits %d + misses %d != reads %d + collective blocks %d",
					s.Rank, s.CacheHits, s.CacheMisses, s.ReadReqs, s.CollectiveBlocks)
			}
			if s.CacheEvictions > s.CacheMisses {
				o.diverge("delegate", "stats", "server %d evicted %d blocks but filled only %d",
					s.Rank, s.CacheEvictions, s.CacheMisses)
			}
		}
		if k.CollectiveRead {
			// One intent epoch per file per collective point: each read
			// round's Fetch plus Close's, on every server.
			if want := int64(k.Files) * int64(len(p.ReadRounds)+1); s.ReadEpochs != want {
				o.diverge("delegate", "stats", "server %d closed %d read epochs, want %d (files x rounds+close)",
					s.Rank, s.ReadEpochs, want)
			}
			if s.ReadReqs != 0 {
				o.diverge("delegate", "stats", "server %d served %d inline reads in collective mode",
					s.Rank, s.ReadReqs)
			}
		} else if s.ReadEpochs != 0 || s.CollectiveBlocks != 0 {
			o.diverge("delegate", "stats", "server %d closed %d read epochs (%d blocks) with collective read off",
				s.Rank, s.ReadEpochs, s.CollectiveBlocks)
		}
	}
	if !k.CollectiveRead && readReqs != pieceSum {
		o.diverge("delegate", "stats", "servers served %d read requests, clients sent %d pieces", readReqs, pieceSum)
	}
	if fsReads != dl.fsReads {
		o.diverge("delegate", "stats", "servers report %d FSReads, file system served %d", fsReads, dl.fsReads)
	}
	if k.ServerCacheBlocks == 0 && !k.CollectiveRead && fsReads != pieceSum {
		// The disarmed read path keeps the per-request identity: one file
		// system read of exactly the piece's length per client piece.
		o.diverge("delegate", "stats", "disarmed read path issued %d fs reads for %d client pieces", fsReads, pieceSum)
	}
}
