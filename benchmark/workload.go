package main

// The frozen workload set. Each workload is a small program of its own,
// written against the layer packages only (never internal/bench or
// internal/conformance, which are due to be rewritten), with the default
// tcio.Config apart from the segment geometry.
//
// A workload's geometry (ranks, piece sizes, segment counts) is fixed in
// its constructor and never depends on the seed; the seed drives only the
// bytes (for the ART workloads, the trees' cell values).

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"

	"github.com/tcio/tcio/internal/cluster"
	"github.com/tcio/tcio/internal/delegate"
	"github.com/tcio/tcio/internal/mpi"
	"github.com/tcio/tcio/internal/netsim"
	"github.com/tcio/tcio/internal/pfs"
	"github.com/tcio/tcio/internal/simtime"
)

// program is one workload at one size.
type program interface {
	// geometry describes the fixed shape; equal for every seed.
	geometry() string
	// generate builds the inputs for seed and returns their SHA-256.
	generate(seed int64) string
	// rep runs one write+read repetition in a fresh file system and fresh
	// worlds, verifying every read-back byte against the inputs. tr is nil
	// in untraced reps.
	rep(tr *tracer) repOut
	// corruptExpected makes the expected read-back differ from what the
	// write phase stores (tests only: the correctness gate must trip).
	corruptExpected()
}

// phaseOut is one phase of one rep: the unit fail_share counts.
type phaseOut struct {
	name     string
	simBytes int64            // simulated bytes moved
	vt       simtime.Duration // phase makespan, virtual time
	err      error
}

// repOut is the outcome of one rep.
type repOut struct {
	write, read phaseOut
	peakMem     int64 // simulated bytes, max over ranks and worlds
	// Hardware counters summed over the rep's worlds.
	net netsim.Stats
	fs  pfs.Stats

	// delegate-rw only: the tier's own counters.
	servers      []delegate.ServerStats
	creditStalls int64 // summed over clients
	// delegate-rw only: phase boundaries inside its single world.
	writeEnd, coldEnd, hotEnd simtime.Time
}

// workloadDef names a workload and says why it is in the set.
type workloadDef struct {
	name string
	why  string
	make func(toy bool) program
}

// workloads is the frozen set, in report order. The names and the full-size
// geometries are part of the benchmark's contract; see README.md.
var workloads = []workloadDef{
	{"synth-tcio", "Fig. 5 at its 512-rank crossover; 12-byte pieces put the work in tcio level-1 coalescing and the one-sided ship", func(toy bool) program {
		return pick(toy, &synth{procs: 512, lenReal: 1024, scale: 4096}, &synth{procs: 8, lenReal: 64, scale: 4096})
	}},
	{"synth-ocio", "the same bytes through mpiio two-phase; bypasses tcio, loads mpi.Alltoallv and netsim incast", func(toy bool) program {
		return pick(toy, &synth{ocio: true, procs: 512, lenReal: 1024, scale: 4096}, &synth{ocio: true, procs: 8, lenReal: 64, scale: 4096})
	}},
	{"art-tcio", "Fig. 9/10 checkpoint: large variable-size pieces through tcio; host time is window allocation and art codecs", func(toy bool) program {
		return pick(toy, &artProg{procs: 64, ntrees: 2048, mu: 2048, sigma: 128}, &artProg{procs: 4, ntrees: 16, mu: 256, sigma: 16})
	}},
	{"art-vanilla", "the same trees as independent mpiio requests; bypasses tcio, simulated time is pfs requests and lock conflicts", func(toy bool) program {
		return pick(toy, &artProg{vanilla: true, procs: 64, ntrees: 2048, mu: 2048, sigma: 128}, &artProg{vanilla: true, procs: 4, ntrees: 16, mu: 256, sigma: 16})
	}},
	{"delegate-rw", "the only workload on the delegate tier and the mpi RPC path: strided writes, then a cold and a hot read pass", func(toy bool) program {
		return pick(toy, &delegateProg{clients: 60, servers: 4, segsPerClient: 64, cacheBlocks: 256}, &delegateProg{clients: 6, servers: 2, segsPerClient: 8, cacheBlocks: 16})
	}},
	{"scale-4096", "trivial simulated work on 4096 ranks, so host cost is the mpi runtime itself; virtual time is an exact-match canary", func(toy bool) program {
		return pick(toy, &scaleProg{procs: 4096}, &scaleProg{procs: 16})
	}},
}

// pick chooses between a workload's frozen full size and the toy size the
// tests run (at most 16 ranks).
func pick(toy bool, full, small program) program {
	if toy {
		return small
	}
	return full
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// newEnv builds the simulated machine of one rep: the paper's Lonestar
// cluster and a fresh Lustre-like file system, both at the given byte
// scale. The stripe shrinks by the scale, so request and message counts
// match paper scale while real buffers stay small.
func newEnv(scale int64) (cluster.Machine, *pfs.FileSystem) {
	m := cluster.Lonestar()
	m.ByteScale = scale
	cfg := pfs.DefaultConfig()
	cfg.ByteScale = scale
	cfg.StripeSize = (1 << 20) / scale
	cfg.ReadAhead = cfg.StripeSize
	return m, pfs.New(cfg)
}

// seededBytes returns n bytes drawn from seed; stream separates workloads.
func seededBytes(seed, stream int64, n int) []byte {
	buf := make([]byte, n)
	rand.New(rand.NewSource(seed*1_000_003 + stream)).Read(buf)
	return buf
}

func sha256Hex(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// runWorld runs body on every rank of a fresh world, handing each rank its
// probe (nil when untraced), and keeps the world's report for the tracer.
func runWorld(tr *tracer, name string, cfg mpi.Config, body func(c *mpi.Comm, p *probe) error) (mpi.Report, error) {
	wt := tr.world(name, cfg.Procs)
	rep, err := mpi.Run(cfg, func(c *mpi.Comm) error { return body(c, wt.rank(c)) })
	if wt != nil {
		wt.report = rep
	}
	return rep, err
}

// phase fills in one phaseOut from a world's outcome.
func phase(name string, simBytes int64, rep mpi.Report, err error) phaseOut {
	return phaseOut{name: name, simBytes: simBytes, vt: rep.MaxTime.Sub(0), err: err}
}

func mismatch(rank int, what string) error {
	return fmt.Errorf("rank %d: %s read back differs from the seeded input", rank, what)
}
