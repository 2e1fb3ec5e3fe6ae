package conformance

// The delegation-tier engine driver (knob class 6): the program replayed
// through internal/delegate, with Files concurrently open files per
// client. Every file sees the same ops, but payload bytes are XORed with
// a per-file constant, so any cross-file bleed — shared staging, a
// misrouted domain piece, pooled counters — shows up as a byte or
// counter divergence against that file's own truth. ServerRanks == 0
// runs the same multi-file program through tcio directly on every rank.

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

	// w and r are the per-file, per-client call and protocol counters of
	// the write and read phases; passFSWrites totals the write phase's tcio
	// ledgers' FSWrites when ServerRanks == 0.
	w, r         [][]delegate.Stats
	passFSWrites int64
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
		ServerRanks: k.ServerRanks,
		TCIO:        p.tcioConfig(rec),
	}
}

// tierFile is an open file of either engine: *tcio.File or *delegate.File.
type tierFile interface {
	WriteAt(off int64, data []byte) error
	ReadAt(off int64, dst []byte) error
	Fetch() error
	Flush() error
	Close() error
}

// runTier runs body on every client rank of c with the rank's client index
// and an opener: the tier's, or tcio's on every rank when cfg has no
// servers.
func runTier(c *mpi.Comm, cfg delegate.Config, body func(client int, open func(string, tcio.Mode) (tierFile, error)) error) error {
	if cfg.ServerRanks == 0 {
		return body(c.Rank(), func(name string, mode tcio.Mode) (tierFile, error) { return tcio.Open(c, name, mode, cfg.TCIO) })
	}
	return delegate.Run(c, cfg, func(tr *delegate.Tier) error {
		return body(tr.ClientIndex(), func(name string, mode tcio.Mode) (tierFile, error) { return tr.Open(name, mode) })
	})
}

// fileStats returns f's call and protocol counters and, for a tcio file,
// its ledger's FSWrites; it reads a tcio file's call counters off the ledger.
func fileStats(f tierFile) (delegate.Stats, int64) {
	if tf, ok := f.(*tcio.File); ok {
		s := tf.Stats()
		return delegate.Stats{Writes: s.Writes, WriteBytes: s.BytesWritten, Reads: s.Reads, ReadBytes: s.BytesRead}, s.FSWrites
	}
	return f.(*delegate.File).Stats(), 0
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
	col := &delegate.Collector{}
	wcfg := dcfg
	wcfg.Collect = col
	var mu sync.Mutex
	_, err := mpi.Run(mpi.Config{Procs: p.Procs, Machine: p.machine(), FS: fs, Faults: inj}, func(c *mpi.Comm) error {
		return runTier(c, wcfg, func(client int, open func(string, tcio.Mode) (tierFile, error)) error {
			files := make([]tierFile, k.Files)
			for fi := range files {
				f, err := open(delegateName(fi), tcio.WriteMode)
				if err != nil {
					return err
				}
				files[fi] = f
			}
			for _, round := range p.WriteRounds {
				for _, op := range round.Ops {
					if op.Rank != client {
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
				st, fsWrites := fileStats(f)
				mu.Lock()
				out.w[fi][client] = st
				out.passFSWrites += fsWrites
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
		return runTier(c, rcfg, func(client int, open func(string, tcio.Mode) (tierFile, error)) error {
			files := make([]tierFile, k.Files)
			for fi := range files {
				f, err := open(delegateName(fi), tcio.ReadMode)
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
					if op.Rank != client {
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
				// Materialize the round's lazy tcio reads (delegated reads are
				// synchronous, and Fetch is a no-op).
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
				out.r[fi][client], _ = fileStats(f)
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
		if dl.passFSWrites != dl.fsWrites {
			o.diverge("delegate", "stats", "tcio ranks report %d FSWrites, file system served %d",
				dl.passFSWrites, dl.fsWrites)
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
	var readReqs, fsReads int64
	for _, s := range dl.rservers {
		readReqs += s.ReadReqs
		fsReads += s.FSReads
		// Every served read request is exactly one hit or one miss.
		if s.CacheHits+s.CacheMisses != s.ReadReqs {
			o.diverge("delegate", "stats", "server %d cache hits %d + misses %d != reads %d",
				s.Rank, s.CacheHits, s.CacheMisses, s.ReadReqs)
		}
	}
	if readReqs != pieceSum {
		o.diverge("delegate", "stats", "servers served %d read requests, clients sent %d pieces", readReqs, pieceSum)
	}
	if fsReads != dl.fsReads {
		o.diverge("delegate", "stats", "servers report %d FSReads, file system served %d", fsReads, dl.fsReads)
	}
}
