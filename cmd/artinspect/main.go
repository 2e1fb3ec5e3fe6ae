// Command artinspect works with ART checkpoint files: it can generate one
// (running a simulated dump and exporting the bytes) and inspect one
// (parsing the index and every FTT record), which is how the self-
// describing format of the paper's §V.C can be examined on disk.
//
//	artinspect -generate ckpt.art -trees 32
//	artinspect -inspect ckpt.art
package main

import (
	"flag"
	"fmt"
	"os"

	"github.com/tcio/tcio/internal/art"
	"github.com/tcio/tcio/internal/cluster"
	"github.com/tcio/tcio/internal/mpi"
	"github.com/tcio/tcio/internal/stats"
)

func main() {
	var (
		generate = flag.String("generate", "", "write a freshly generated checkpoint to this path")
		inspect  = flag.String("inspect", "", "parse and describe the checkpoint at this path")
		trees    = flag.Int("trees", 32, "trees to generate")
		vars     = flag.Int("vars", 2, "variables per cell")
		procs    = flag.Int("procs", 8, "simulated ranks for -generate")
		seed     = flag.Int64("seed", art.TableIV.Seed, "generation seed")
	)
	flag.Parse()
	switch {
	case *generate != "":
		if err := doGenerate(*generate, *trees, *vars, *procs, *seed); err != nil {
			fmt.Fprintln(os.Stderr, "artinspect:", err)
			os.Exit(1)
		}
	case *inspect != "":
		if err := doInspect(*inspect); err != nil {
			fmt.Fprintln(os.Stderr, "artinspect:", err)
			os.Exit(1)
		}
	default:
		flag.Usage()
		os.Exit(2)
	}
}

func doGenerate(path string, trees, vars, procs int, seed int64) error {
	var snapshot []byte
	_, err := mpi.Run(mpi.Config{Procs: procs, Machine: cluster.Lonestar()}, func(c *mpi.Comm) error {
		mine := art.GenerateForRank(trees, vars, c.Size(), c.Rank(), seed)
		if err := art.Dump(c, art.LibTCIO, "export", mine, trees, 0); err != nil {
			return err
		}
		if c.Rank() == 0 {
			snapshot = c.FS().Open("export").Snapshot()
		}
		return nil
	})
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, snapshot, 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s: %d trees, %d bytes\n", path, trees, len(snapshot))
	return nil
}

func doInspect(path string) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	fromRaw := func(off int64, dst []byte) error { copy(dst, raw[off:]); return nil }
	offsets, err := art.DecodeIndex(fromRaw, int64(len(raw)))
	if err != nil {
		return err
	}
	ntrees := len(offsets) - 1
	fmt.Printf("%s: ART checkpoint, %d trees, %d bytes\n\n", path, ntrees, len(raw))

	t := stats.Table{
		Headers: []string{"tree", "offset", "bytes", "depth", "cells", "vars"},
	}
	totalCells := 0
	for i := 0; i < ntrees; i++ {
		rec := raw[offsets[i]:offsets[i+1]]
		tree, err := art.Decode(rec)
		if err != nil {
			return fmt.Errorf("tree %d: %w", i, err)
		}
		totalCells += tree.NumCells()
		t.AddRow(fmt.Sprint(tree.ID), fmt.Sprint(offsets[i]), fmt.Sprint(len(rec)),
			fmt.Sprint(tree.Depth()), fmt.Sprint(tree.NumCells()), fmt.Sprint(tree.Vars))
	}
	if err := t.Render(os.Stdout); err != nil {
		return err
	}
	fmt.Printf("total: %d cells across %d adaptive refinement trees\n", totalCells, ntrees)
	return nil
}
