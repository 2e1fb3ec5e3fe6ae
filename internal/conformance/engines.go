package conformance

// Engine drivers: execute one Program through tcio, OCIO, and vanilla
// MPI-IO, each against its own fresh simulated file system (and, for
// chaos programs, its own injector replaying the same seed). Each driver
// returns an engineRun capturing everything the oracles in check.go need:
// the final file image, per-rank library counters, read-back mismatches,
// trace events, and fault-injection totals.

import (
	"fmt"
	"sort"
	"sync"

	"github.com/tcio/tcio/internal/cluster"
	"github.com/tcio/tcio/internal/faults"
	"github.com/tcio/tcio/internal/mpi"
	"github.com/tcio/tcio/internal/mpiio"
	"github.com/tcio/tcio/internal/pfs"
	"github.com/tcio/tcio/internal/tcio"
	"github.com/tcio/tcio/internal/trace"

	"github.com/tcio/tcio/internal/datatype"
)

// confFile is the shared file name every engine run uses.
const confFile = "conform.dat"

// engineRun is one engine's observable outcome on one program.
type engineRun struct {
	name string

	writeErr string // write-phase failure ("" = clean)
	readErr  string // read-phase failure, incl. read-back mismatches

	image    []byte // file bytes after the write phase (dense, Size long)
	fileSize int64
	fsWrites int64  // file system write-request count after the write phase
	retries  int64  // transient faults absorbed, both phases
	injected string // injector CountsString after both phases ("" = none)

	// tcio only.
	wStats []tcio.Stats
	rStats []tcio.Stats
	events []trace.Event
}

// newInjector builds the program's fault injector, or nil when the knob
// class left chaos disarmed. Each engine gets its own instance so the
// three engines see identical fault streams instead of racing for rolls.
func (p *Program) newInjector() *faults.Injector {
	k := p.Knobs
	if k.ChaosSeed == 0 {
		return nil
	}
	inj := faults.New(k.ChaosSeed)
	if k.OSTWriteProb > 0 {
		inj.Set(faults.SiteOSTWrite, faults.Rule{Prob: k.OSTWriteProb})
	}
	if k.OSTReadProb > 0 {
		inj.Set(faults.SiteOSTRead, faults.Rule{Prob: k.OSTReadProb})
	}
	if k.WinPutProb > 0 {
		inj.Set(faults.SiteWinPut, faults.Rule{Prob: k.WinPutProb})
	}
	return inj
}

// newFS builds the program's file system with its stripe geometry.
func (p *Program) newFS(inj *faults.Injector) *pfs.FileSystem {
	cfg := pfs.DefaultConfig()
	cfg.StripeSize = p.StripeSize
	cfg.StripeCount = p.StripeCount
	cfg.Faults = inj
	return pfs.New(cfg)
}

// machine builds the program's simulated machine: the default testbed,
// with the rank placement overridden when the CoresPerNode knob is set.
// Every engine runs on the same machine so the placement cannot itself
// cause a divergence.
func (p *Program) machine() cluster.Machine {
	m := cluster.Lonestar()
	if p.Knobs.CoresPerNode > 0 {
		m.CoresPerNode = p.Knobs.CoresPerNode
	}
	return m
}

// tcioConfig maps the program's knobs onto a tcio.Config.
func (p *Program) tcioConfig(rec *trace.Recorder) tcio.Config {
	k := p.Knobs
	return tcio.Config{
		SegmentSize:    p.SegmentSize,
		NumSegments:    p.NumSegments,
		DisableLevel1:  k.DisableLevel1,
		DemandPopulate: k.DemandPopulate,
		Journal:        k.Journal,
		Trace:          rec,
	}
}

// snapshotWritePhase captures the post-write file state shared by all
// three drivers.
func (r *engineRun) snapshotWritePhase(fs *pfs.FileSystem) {
	pf := fs.Open(confFile)
	r.fileSize = pf.Size()
	r.image = pf.Snapshot()
	r.fsWrites = fs.Stats().Writes
}

// finish records the injector totals after both phases.
func (r *engineRun) finish(inj *faults.Injector) {
	if inj != nil {
		r.injected = inj.CountsString()
	}
}

// verifyReads compares captured read-back bytes against the ground truth
// and returns a description of the first mismatch.
type readCapture struct {
	op  Op
	got []byte
}

func verifyCaptures(truth []byte, caps []readCapture) error {
	for _, c := range caps {
		for i := int64(0); i < c.op.Len; i++ {
			var want byte
			if c.op.Off+i < int64(len(truth)) {
				want = truth[c.op.Off+i]
			}
			if c.got[i] != want {
				return fmt.Errorf("read-back mismatch: rank %d op off=%d len=%d: byte %d got %#x want %#x",
					c.op.Rank, c.op.Off, c.op.Len, i, c.got[i], want)
			}
		}
	}
	return nil
}

// runTCIO executes the program through the tcio engine.
func runTCIO(p *Program, truth []byte) *engineRun {
	out := &engineRun{name: "tcio"}
	inj := p.newInjector()
	fs := p.newFS(inj)
	rec := trace.New(0)
	cfg := p.tcioConfig(rec)

	out.wStats = make([]tcio.Stats, p.Procs)
	var mu sync.Mutex
	_, err := mpi.Run(mpi.Config{Procs: p.Procs, Machine: p.machine(), FS: fs, Faults: inj}, func(c *mpi.Comm) error {
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
	out.events = rec.Events()
	if err != nil {
		out.writeErr = err.Error()
		out.finish(inj)
		return out
	}
	out.snapshotWritePhase(fs)

	out.rStats = make([]tcio.Stats, p.Procs)
	_, err = mpi.Run(mpi.Config{Procs: p.Procs, Machine: p.machine(), FS: fs, Faults: inj}, func(c *mpi.Comm) error {
		f, err := tcio.Open(c, confFile, tcio.ReadMode, cfg)
		if err != nil {
			return err
		}
		var caps []readCapture
		var opErr error
		for _, round := range p.ReadRounds {
			for _, op := range round.Ops {
				if op.Rank != c.Rank() {
					continue
				}
				dst := make([]byte, op.Len)
				if opErr = f.ReadAt(op.Off, dst); opErr != nil {
					break
				}
				caps = append(caps, readCapture{op: op, got: dst})
			}
			if opErr != nil {
				break
			}
			if opErr = f.Fetch(); opErr != nil {
				break
			}
		}
		var closeErr error
		if opErr == nil {
			closeErr = f.Close()
		}
		mu.Lock()
		out.rStats[c.Rank()] = f.Stats()
		mu.Unlock()
		if opErr != nil {
			return opErr
		}
		if closeErr != nil {
			return closeErr
		}
		return verifyCaptures(truth, caps)
	})
	if err != nil {
		out.readErr = err.Error()
	}
	for i := range out.wStats {
		out.retries += out.wStats[i].Retries
	}
	for i := range out.rStats {
		out.retries += out.rStats[i].Retries
	}
	out.finish(inj)
	return out
}

// runVanilla executes the program through independent MPI-IO: one file
// system request per piece, no aggregation.
func runVanilla(p *Program, truth []byte) *engineRun {
	out := &engineRun{name: "vanilla"}
	inj := p.newInjector()
	fs := p.newFS(inj)

	var mu sync.Mutex
	_, err := mpi.Run(mpi.Config{Procs: p.Procs, Machine: p.machine(), FS: fs, Faults: inj}, func(c *mpi.Comm) error {
		f, err := mpiio.Open(c, confFile)
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
			if opErr = c.Barrier(); opErr != nil {
				break
			}
		}
		mu.Lock()
		out.retries += f.Retries()
		mu.Unlock()
		return opErr
	})
	if err != nil {
		out.writeErr = err.Error()
		out.finish(inj)
		return out
	}
	out.snapshotWritePhase(fs)

	_, err = mpi.Run(mpi.Config{Procs: p.Procs, Machine: p.machine(), FS: fs, Faults: inj}, func(c *mpi.Comm) error {
		f, err := mpiio.Open(c, confFile)
		if err != nil {
			return err
		}
		var caps []readCapture
		for _, round := range p.ReadRounds {
			if p.Knobs.ViewRead {
				// The rank reads the whole round through its view in one
				// independent call: one request per run of the view.
				got, err := readRound(f, round, c.Rank(), func(n int64) ([]byte, error) { return f.ReadAt(0, n) })
				if err != nil {
					return err
				}
				caps = append(caps, got...)
			} else {
				for _, op := range round.Ops {
					if op.Rank != c.Rank() {
						continue
					}
					got, err := f.ReadAt(op.Off, op.Len)
					if err != nil {
						return err
					}
					caps = append(caps, readCapture{op: op, got: got})
				}
			}
			if err := c.Barrier(); err != nil {
				return err
			}
		}
		mu.Lock()
		out.retries += f.Retries()
		mu.Unlock()
		return verifyCaptures(truth, caps)
	})
	if err != nil {
		out.readErr = err.Error()
	}
	out.finish(inj)
	return out
}

// rankRoundWrite reduces one rank's ops in one round to its effective
// coalesced runs and last-wins payload: a dense overlay over the ops'
// span, applied in program order. This is the translation an application
// migrating from piecewise writes to collective WriteAll calls performs,
// and it keeps the OCIO round semantically identical to the piecewise
// rounds of the other engines (within a round only same-rank ops may
// overlap, and later ops win either way).
func rankRoundWrite(p *Program, round Round, rank int) (offs, lens []int64, payload []byte) {
	lo, hi := int64(-1), int64(-1)
	for _, op := range round.Ops {
		if op.Rank != rank || op.Len == 0 {
			continue
		}
		if lo < 0 || op.Off < lo {
			lo = op.Off
		}
		if op.End() > hi {
			hi = op.End()
		}
	}
	if lo < 0 {
		return nil, nil, nil
	}
	buf := make([]byte, hi-lo)
	covered := make([]bool, hi-lo)
	for _, op := range round.Ops {
		if op.Rank != rank || op.Len == 0 {
			continue
		}
		copy(buf[op.Off-lo:op.End()-lo], p.Payload(op))
		for i := op.Off - lo; i < op.End()-lo; i++ {
			covered[i] = true
		}
	}
	for i := int64(0); i < int64(len(covered)); {
		if !covered[i] {
			i++
			continue
		}
		j := i
		for j < int64(len(covered)) && covered[j] {
			j++
		}
		offs = append(offs, lo+i)
		lens = append(lens, j-i)
		payload = append(payload, buf[i:j]...)
		i = j
	}
	return offs, lens, payload
}

// rankRoundRead reduces one rank's read ops in one round to the coalesced
// union of their ranges (collective reads fetch each byte once; the
// oracle checks every op against the truth afterwards).
func rankRoundRead(round Round, rank int) (offs, lens []int64) {
	lo, hi := int64(-1), int64(-1)
	for _, op := range round.Ops {
		if op.Rank != rank || op.Len == 0 {
			continue
		}
		if lo < 0 || op.Off < lo {
			lo = op.Off
		}
		if op.End() > hi {
			hi = op.End()
		}
	}
	if lo < 0 {
		return nil, nil
	}
	covered := make([]bool, hi-lo)
	for _, op := range round.Ops {
		if op.Rank != rank || op.Len == 0 {
			continue
		}
		for i := op.Off - lo; i < op.End()-lo; i++ {
			covered[i] = true
		}
	}
	for i := int64(0); i < int64(len(covered)); {
		if !covered[i] {
			i++
			continue
		}
		j := i
		for j < int64(len(covered)) && covered[j] {
			j++
		}
		offs = append(offs, lo+i)
		lens = append(lens, j-i)
		i = j
	}
	return offs, lens
}

// setRoundView installs the Hindexed view for one round's runs, or the
// trivial byte view when the rank contributes nothing (it must still join
// the collective call).
func setRoundView(f *mpiio.File, offs, lens []int64) error {
	if len(offs) == 0 {
		if err := f.SetView(0, datatype.Byte, datatype.Byte); err != nil {
			return err
		}
		return f.SeekTo(0)
	}
	ft, err := datatype.Hindexed(lens, offs)
	if err != nil {
		return err
	}
	if err := f.SetView(0, datatype.Byte, ft); err != nil {
		return err
	}
	return f.SeekTo(0)
}

// readRound reads rank's share of round through the round's Hindexed view
// in one call of read, which gets the byte count, and maps each of the
// rank's ops onto the bytes it returned, so they verify like per-op reads.
func readRound(f *mpiio.File, round Round, rank int, read func(int64) ([]byte, error)) ([]readCapture, error) {
	offs, lens := rankRoundRead(round, rank)
	if err := setRoundView(f, offs, lens); err != nil {
		return nil, err
	}
	packed := make([]int64, len(offs)+1) // where each run starts in the read
	for i, n := range lens {
		packed[i+1] = packed[i] + n
	}
	got, err := read(packed[len(offs)])
	if err != nil {
		return nil, err
	}
	if int64(len(got)) != packed[len(offs)] {
		return nil, fmt.Errorf("rank %d read %d bytes through its round view, want %d", rank, len(got), packed[len(offs)])
	}
	var caps []readCapture
	for _, op := range round.Ops {
		if op.Rank != rank {
			continue
		}
		c := readCapture{op: op}
		if op.Len > 0 {
			// The runs are the union of the ops, so the last run starting at
			// or before an op holds all of it.
			i := sort.Search(len(offs), func(i int) bool { return offs[i] > op.Off }) - 1
			at := packed[i] + op.Off - offs[i]
			c.got = got[at : at+op.Len]
		}
		caps = append(caps, c)
	}
	return caps, nil
}

// runOCIO executes the program through ROMIO-style two-phase collective
// I/O: each round becomes one WriteAll/ReadAll under a per-round
// Hindexed file view.
func runOCIO(p *Program, truth []byte) *engineRun {
	out := &engineRun{name: "ocio"}
	inj := p.newInjector()
	fs := p.newFS(inj)

	var mu sync.Mutex
	_, err := mpi.Run(mpi.Config{Procs: p.Procs, Machine: p.machine(), FS: fs, Faults: inj}, func(c *mpi.Comm) error {
		f, err := mpiio.Open(c, confFile)
		if err != nil {
			return err
		}
		var opErr error
		for _, round := range p.WriteRounds {
			offs, lens, payload := rankRoundWrite(p, round, c.Rank())
			if opErr = setRoundView(f, offs, lens); opErr != nil {
				break
			}
			if len(offs) == 0 {
				payload = nil
			}
			if opErr = f.WriteAll(payload); opErr != nil {
				break
			}
		}
		mu.Lock()
		out.retries += f.Retries()
		mu.Unlock()
		return opErr
	})
	if err != nil {
		out.writeErr = err.Error()
		out.finish(inj)
		return out
	}
	out.snapshotWritePhase(fs)

	_, err = mpi.Run(mpi.Config{Procs: p.Procs, Machine: p.machine(), FS: fs, Faults: inj}, func(c *mpi.Comm) error {
		f, err := mpiio.Open(c, confFile)
		if err != nil {
			return err
		}
		for _, round := range p.ReadRounds {
			caps, err := readRound(f, round, c.Rank(), f.ReadAll)
			if err != nil {
				return err
			}
			if err := verifyCaptures(truth, caps); err != nil {
				return err
			}
		}
		mu.Lock()
		out.retries += f.Retries()
		mu.Unlock()
		return nil
	})
	if err != nil {
		out.readErr = err.Error()
	}
	out.finish(inj)
	return out
}
