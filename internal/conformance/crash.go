package conformance

// The crash-consistency checker (knob class 7). One clean tcio run executes
// under a pfs.Oplog, which records every durable mutation with its
// virtual-time service interval; "crash at T" is then a pure post-hoc
// reconstruction (pfs.Oplog.ReplayAt). The checker draws several kill
// instants spanning the run, reconstructs the crashed disk at each, runs
// tcio.Recover over it, and diffs the recovered data file byte-for-byte
// against the committed-prefix model:
//
//	a byte written in round r and owned (equation (1)) by rank o appears
//	iff o's journal holds a commit marker for epoch r+1 that was durable
//	by T — otherwise the byte holds the latest earlier committed round's
//	value (or zero).
//
// The model is sound because the journal tier orders every epoch commit
// before any data-file drain of the session (journalEpoch + barrier precede
// drain; Validate rejects write-behind and delegation with kills), and a
// durable journal truncate implies the rank's final drain had settled.
//
// Independently of the kills, the checker audits the full journal images
// with its own record decoder — reimplemented here from the format
// specification, so a mutant inside package wal cannot blind the oracle
// that is supposed to catch it. The audit requires every epoch batch to be
// sealed by exactly one commit marker (the invariant the skip-commit-marker
// mutant breaks even when no kill lands inside the torn window).

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math/rand"
	"sync"

	"github.com/tcio/tcio/internal/mpi"
	"github.com/tcio/tcio/internal/pfs"
	"github.com/tcio/tcio/internal/simtime"
	"github.com/tcio/tcio/internal/tcio"
)

// crashRun is the outcome of the logged clean run plus its kill replays.
type crashRun struct {
	err     string // clean-run failure ("" = ok)
	maxTime simtime.Time
	wStats  []tcio.Stats
	log     *pfs.Oplog
	walFull [][]byte // per-rank journal image rebuilt from the log (pre-truncate)
	kills   []simtime.Time
	okKills int // kills whose recovery matched the model byte-exactly
}

// runCrash executes the program's write phase once more on its own file
// system with the operation log attached, then rebuilds the full journal
// images and draws the kill instants. The run duplicates runTCIO's write
// phase exactly (same knobs, same fault stream) so its virtual-time log is
// the one the main run would have produced.
func runCrash(p *Program) *crashRun {
	out := &crashRun{log: &pfs.Oplog{}}
	inj := p.newInjector()
	fs := p.newFS(inj)
	fs.SetOplog(out.log)
	cfg := p.tcioConfig(nil)

	out.wStats = make([]tcio.Stats, p.Procs)
	var mu sync.Mutex
	rep, err := mpi.Run(mpi.Config{Procs: p.Procs, Machine: p.machine(), FS: fs, Faults: inj}, func(c *mpi.Comm) error {
		f, err := tcio.Open(c, confFile, tcio.WriteMode, cfg)
		if err != nil {
			return err
		}
		var opErr error
		for _, round := range p.WriteRounds {
			for _, op := range round.Ops {
				if op.Rank != c.Rank() {
					continue
				}
				if opErr = f.WriteAt(op.Off, p.Payload(op)); opErr != nil {
					break
				}
			}
			if opErr != nil {
				break
			}
			if opErr = f.Flush(); opErr != nil {
				break
			}
		}
		var closeErr error
		if opErr == nil {
			closeErr = f.Close()
		}
		mu.Lock()
		out.wStats[c.Rank()] = f.Stats()
		mu.Unlock()
		if opErr != nil {
			return opErr
		}
		return closeErr
	})
	if err != nil {
		out.err = err.Error()
		return out
	}
	out.maxTime = rep.MaxTime

	// Rebuild each rank's full journal image from the log's store records —
	// the clean run truncated the files, but the log keeps what was written.
	out.walFull = make([][]byte, p.Procs)
	for _, r := range out.log.Records() {
		if r.Kind != pfs.OpStore {
			continue
		}
		for rank := 0; rank < p.Procs; rank++ {
			if r.Name != tcio.WALFileName(confFile, rank) {
				continue
			}
			img := out.walFull[rank]
			if need := r.Off + int64(len(r.Data)); int64(len(img)) < need {
				img = append(img, make([]byte, need-int64(len(img)))...)
			}
			copy(img[r.Off:], r.Data)
			out.walFull[rank] = img
			break
		}
	}

	// Kill instants: seed-deterministic draws over roughly the later 70% of
	// the run (the early tail is all setup; epochs and drains live late),
	// extending slightly past the end so the post-completion no-op recovery
	// stays in rotation. Integer arithmetic only — the draw must reproduce
	// bit-identically across runs (TestHostOrderRatchet compares summaries).
	rng := rand.New(rand.NewSource(p.Seed ^ 0x5DEECE66D))
	m := int64(out.maxTime)
	lo := 3 * m / 10
	span := m - lo + m/20 + 1
	for k := 0; k < p.Knobs.CrashKills; k++ {
		out.kills = append(out.kills, simtime.Time(lo+rng.Int63n(span)))
	}
	return out
}

// walEpochMark is one epoch parsed by the checker's own journal decoder:
// its sequence number and whether (and where) its commit marker sealed it.
type walEpochMark struct {
	seq    int64
	sealed bool
}

// decodeWALIndex walks a journal image with the checker's independent
// implementation of the record framing ([4B len][4B CRC-32][payload],
// payload[0] = type 1 header / 2 run / 3 commit). A torn tail stops the
// walk cleanly; a structurally complete but invalid record is an error.
// Returns the epochs seen (sealed or not), and the bytes consumed by
// fully-parsed records.
func decodeWALIndex(img []byte) (marks []walEpochMark, consumed int64, err error) {
	open := -1 // index into marks of the unsealed epoch, -1 when none
	pos := 0
	for pos < len(img) {
		if len(img)-pos < 8 {
			break // torn length prefix
		}
		n := int(binary.LittleEndian.Uint32(img[pos : pos+4]))
		sum := binary.LittleEndian.Uint32(img[pos+4 : pos+8])
		if len(img)-pos-8 < n {
			break // torn record body
		}
		payload := img[pos+8 : pos+8+n]
		if n == 0 || crc32.ChecksumIEEE(payload) != sum {
			return marks, int64(pos), fmt.Errorf("checksum mismatch at byte %d", pos)
		}
		switch payload[0] {
		case 1: // epoch header
			if n != 13 {
				return marks, int64(pos), fmt.Errorf("header of %d bytes at %d", n, pos)
			}
			if open >= 0 {
				return marks, int64(pos), fmt.Errorf("header inside unsealed epoch %d at byte %d",
					marks[open].seq, pos)
			}
			marks = append(marks, walEpochMark{seq: int64(binary.LittleEndian.Uint64(payload[5:13]))})
			open = len(marks) - 1
		case 2: // dirty run
			if n < 17 {
				return marks, int64(pos), fmt.Errorf("run record of %d bytes at %d", n, pos)
			}
			if open < 0 {
				return marks, int64(pos), fmt.Errorf("run outside any epoch at byte %d", pos)
			}
			if seq := int64(binary.LittleEndian.Uint64(payload[1:9])); seq != marks[open].seq {
				return marks, int64(pos), fmt.Errorf("run for epoch %d inside epoch %d at byte %d",
					seq, marks[open].seq, pos)
			}
		case 3: // commit marker
			if n != 9 {
				return marks, int64(pos), fmt.Errorf("commit marker of %d bytes at %d", n, pos)
			}
			if open < 0 {
				return marks, int64(pos), fmt.Errorf("commit outside any epoch at byte %d", pos)
			}
			if seq := int64(binary.LittleEndian.Uint64(payload[1:9])); seq != marks[open].seq {
				return marks, int64(pos), fmt.Errorf("commit for epoch %d sealing epoch %d at byte %d",
					seq, marks[open].seq, pos)
			}
			marks[open].sealed = true
			open = -1
		default:
			return marks, int64(pos), fmt.Errorf("unknown record type %d at byte %d", payload[0], pos)
		}
		pos += 8 + n
	}
	return marks, int64(pos), nil
}

// checkCrash applies the crash oracles: the structural journal audit on the
// full images, then one replay-recover-diff cycle per kill instant.
func (o *Outcome) checkCrash(p *Program, cr *crashRun) {
	if cr.err != "" {
		o.diverge("tcio", "crash-run", "logged run failed: %s", cr.err)
		return
	}

	// Structural audit of the complete journals: every record well-formed,
	// every epoch sealed by exactly one commit marker, no trailing garbage,
	// and the totals agree with the library's own counters.
	var auditEpochs, auditCommits int64
	for rank, img := range cr.walFull {
		marks, consumed, err := decodeWALIndex(img)
		if err != nil {
			o.diverge("tcio", "journal-audit", "rank %d journal: %v", rank, err)
			return
		}
		if consumed != int64(len(img)) {
			o.diverge("tcio", "journal-audit", "rank %d journal: %d trailing bytes after last record",
				rank, int64(len(img))-consumed)
			return
		}
		for _, mk := range marks {
			auditEpochs++
			if mk.sealed {
				auditCommits++
			} else {
				o.diverge("tcio", "journal-audit", "rank %d epoch %d never sealed by a commit marker",
					rank, mk.seq)
				return
			}
		}
	}
	var statEpochs, statCommits int64
	for _, s := range cr.wStats {
		statEpochs += s.JournalEpochs
		statCommits += s.JournalCommits
	}
	if auditEpochs != statEpochs || auditCommits != statCommits {
		o.diverge("tcio", "journal-audit", "journals hold %d epochs/%d commits, counters say %d/%d",
			auditEpochs, auditCommits, statEpochs, statCommits)
	}

	for _, t := range cr.kills {
		if ok := o.checkOneKill(p, cr, t); ok {
			cr.okKills++
		} else {
			return // the first failed kill carries the diagnosis
		}
	}
}

// checkOneKill reconstructs the crash at instant t, recovers, and diffs the
// data file against the committed-prefix model.
func (o *Outcome) checkOneKill(p *Program, cr *crashRun, t simtime.Time) bool {
	crashed := p.newFS(nil)
	cr.log.ReplayAt(crashed, t)

	// Committed epochs per rank, read off the crashed journals with the
	// independent decoder. A durable truncate means the rank's Close fully
	// settled — every round of its bytes is durable on the data file.
	committed := make([]map[int64]bool, p.Procs)
	for rank := 0; rank < p.Procs; rank++ {
		committed[rank] = make(map[int64]bool)
		wn := tcio.WALFileName(confFile, rank)
		if !crashed.Exists(wn) {
			continue
		}
		marks, _, err := decodeWALIndex(crashed.Open(wn).Snapshot())
		if err != nil {
			o.diverge("tcio", "crash-replay", "kill at %v: rank %d crashed journal: %v", t, rank, err)
			return false
		}
		for _, mk := range marks {
			if mk.sealed {
				committed[rank][mk.seq] = true
			}
		}
	}
	for _, r := range cr.log.Records() {
		if r.Kind != pfs.OpTruncate || r.End > t {
			continue
		}
		for rank := 0; rank < p.Procs; rank++ {
			if r.Name == tcio.WALFileName(confFile, rank) {
				for seq := int64(1); seq <= int64(len(p.WriteRounds))+1; seq++ {
					committed[rank][seq] = true
				}
			}
		}
	}

	// The committed-prefix model: apply write rounds in order, keeping a
	// byte iff its owner committed that round's epoch (flush r seals epoch
	// r+1). Ownership is equation (1), reimplemented dense per byte.
	expected := make([]byte, p.FileBytes)
	for ri, round := range p.WriteRounds {
		seq := int64(ri + 1)
		for _, op := range round.Ops {
			for i := int64(0); i < op.Len; i++ {
				b := op.Off + i
				owner := int((b / p.SegmentSize) % int64(p.Procs))
				if committed[owner][seq] {
					expected[b] = payloadByte(p.Seed, op.ID, i)
				}
			}
		}
	}

	rep, err := tcio.Recover(crashed, confFile, p.tcioConfig(nil))
	if err != nil {
		o.diverge("tcio", "crash-recover", "kill at %v: %v", t, err)
		return false
	}
	got := crashed.Open(confFile).Snapshot()
	n := int64(len(expected))
	if int64(len(got)) > n {
		n = int64(len(got))
	}
	for i := int64(0); i < n; i++ {
		var g, w byte
		if i < int64(len(got)) {
			g = got[i]
		}
		if i < int64(len(expected)) {
			w = expected[i]
		}
		if g != w {
			o.diverge("tcio", "crash-replay",
				"kill at %v: recovered byte %d = %#x, committed-prefix model %#x (replayed %dB from %d journal ranks)",
				t, i, g, w, rep.BytesApplied, len(rep.Ranks))
			return false
		}
	}
	return true
}
