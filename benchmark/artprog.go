package main

// art-tcio and art-vanilla: the ART cosmology checkpoint of Figs. 9/10.
// Trees with Table IV cell counts are dealt round-robin to ranks, dumped
// piece by piece (one I/O call per array) and restored; every restored
// tree is compared with the generated one. The byte scale is 1: records
// are materialized at full size, because scaling would distort the piece
// size distribution that drives the vanilla MPI-IO penalty.

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	"github.com/tcio/tcio/internal/art"
	"github.com/tcio/tcio/internal/mpi"
)

const artVars = 2

type artProg struct {
	vanilla   bool
	procs     int
	ntrees    int
	mu, sigma float64

	trees, want []*art.Tree // indexed by tree ID
}

func (a *artProg) geometry() string {
	return fmt.Sprintf("ranks=%d trees=%d vars=%d mu_cells=%g sigma_cells=%g byte_scale=1",
		a.procs, a.ntrees, artVars, a.mu, a.sigma)
}

func (a *artProg) lib() art.Library {
	if a.vanilla {
		return art.LibVanilla
	}
	return art.LibTCIO
}

// tree builds tree id. Its shape (cell count, depth, refinement maps) is
// drawn with Table IV's own seed whatever the benchmark seed is; only the
// cell values come from the benchmark seed. Shape is geometry: art.Generate
// leaves one root in ten unrefined, so a seed that moved shapes would move
// the bytes written, the requests issued and the peak memory by several
// percent, hiding small changes behind input variation.
func (a *artProg) tree(id, cells int, seed int64) *art.Tree {
	t := art.Generate(int64(id), cells, artVars, art.TreeRNG(art.TableIV.Seed, int64(id)))
	vals := art.TreeRNG(seed, int64(id))
	for _, level := range t.Levels {
		for _, cell := range level {
			for v := range cell.Vals {
				cell.Vals[v] = vals.Float64()
			}
		}
	}
	return t
}

func (a *artProg) generate(seed int64) string {
	sizes := art.SegmentSizes(a.ntrees, a.mu, a.sigma, art.TableIV.Seed)
	a.trees = make([]*art.Tree, a.ntrees)
	h := sha256.New()
	for id := range a.trees {
		a.trees[id] = a.tree(id, sizes[id], seed)
		h.Write(a.trees[id].Encode())
	}
	a.want = a.trees
	return hex.EncodeToString(h.Sum(nil))
}

func (a *artProg) corruptExpected() {
	a.want = append([]*art.Tree(nil), a.trees...)
	// The same shape with one value changed.
	clone, err := art.Decode(a.trees[0].Encode())
	if err != nil {
		panic(err) // Encode's own output must decode
	}
	clone.Levels[0][0].Vals[0]++
	a.want[0] = clone
}

// owned returns rank's share of an ID-indexed tree list, in ID order.
func (a *artProg) owned(all []*art.Tree, rank int) []*art.Tree {
	var out []*art.Tree
	for _, id := range art.OwnedBy(a.ntrees, a.procs, rank) {
		out = append(out, all[id])
	}
	return out
}

func (a *artProg) rep(tr *tracer) repOut {
	machine, fs := newEnv(1)
	cfg := mpi.Config{Procs: a.procs, Machine: machine, FS: fs}
	name := "art-" + a.lib().String() + ".ckpt"
	var out repOut

	// appBytes charges the rank's trees to its memory share, as the
	// synthetic workloads charge their arrays.
	appBytes := func(trees []*art.Tree) int64 {
		var n int64
		for _, t := range trees {
			n += t.EncodedSize()
		}
		return n
	}

	wrep, err := runWorld(tr, "write", cfg, func(c *mpi.Comm, p *probe) error {
		mine := a.owned(a.trees, c.Rank())
		app := appBytes(mine)
		if err := c.Reserve(app); err != nil {
			return err
		}
		defer c.Release(app)
		p.begin("art", "dump")
		defer p.end()
		return art.Dump(c, a.lib(), name, mine, a.ntrees, 0)
	})
	simBytes := fs.Open(name).Size()
	out.write = phase("write", simBytes, wrep, err)
	out.peakMem = wrep.PeakMemory
	if err != nil {
		out.read = phaseOut{name: "read", simBytes: simBytes, err: fmt.Errorf("no file to read: %w", err)}
		return out
	}

	fs.Reset()
	rrep, err := runWorld(tr, "read", cfg, func(c *mpi.Comm, p *probe) error {
		want := a.owned(a.want, c.Rank())
		app := appBytes(want)
		if err := c.Reserve(app); err != nil {
			return err
		}
		defer c.Release(app)
		p.begin("art", "restore")
		got, err := art.Restore(c, a.lib(), name)
		p.end()
		if err != nil {
			return err
		}
		if len(got) != len(want) {
			return fmt.Errorf("rank %d: restored %d trees, want %d", c.Rank(), len(got), len(want))
		}
		for i := range want {
			if !want[i].Equal(got[i]) {
				return mismatch(c.Rank(), fmt.Sprintf("tree %d", want[i].ID))
			}
		}
		return nil
	})
	out.read = phase("read", simBytes, rrep, err)
	out.peakMem = max(out.peakMem, rrep.PeakMemory)
	out.net, out.fs = addNet(wrep.Net, rrep.Net), addFS(wrep.FS, rrep.FS)
	return out
}
