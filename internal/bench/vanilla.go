package bench

// Vanilla MPI-IO baseline: the same POSIX-style loop as Program 3, but
// every piece is an independent MPI-IO access — no buffering, no
// aggregation, no coordination. This is the baseline the ART application
// compares TCIO against in the paper's Figs. 9-10.

import (
	"github.com/tcio/tcio/internal/mpi"
	"github.com/tcio/tcio/internal/mpiio"
)

// VanillaWrite writes the interleaved workload with independent MPI-IO.
func VanillaWrite(c *mpi.Comm, cfg SyntheticConfig, arrays [][]byte) error {
	blockSize := cfg.blockSize()
	handle, err := mpiio.Open(c, cfg.FileName)
	if err != nil {
		return err
	}
	for i := 0; i < cfg.iters(); i++ {
		pos := int64(c.Rank())*blockSize + int64(i)*blockSize*int64(c.Size())
		for j := range arrays {
			width := int(cfg.TypeArray[j].Size())
			lo := i * cfg.SizeAccess * width
			hi := lo + cfg.SizeAccess*width
			if err := handle.WriteAt(pos, arrays[j][lo:hi]); err != nil {
				return err
			}
			pos += int64(cfg.SizeAccess * width)
		}
	}
	return handle.Close()
}

// VanillaRead reads the workload back with independent MPI-IO.
func VanillaRead(c *mpi.Comm, cfg SyntheticConfig, arrays [][]byte) error {
	blockSize := cfg.blockSize()
	handle, err := mpiio.Open(c, cfg.FileName)
	if err != nil {
		return err
	}
	for i := 0; i < cfg.iters(); i++ {
		pos := int64(c.Rank())*blockSize + int64(i)*blockSize*int64(c.Size())
		for j := range arrays {
			width := int(cfg.TypeArray[j].Size())
			lo := i * cfg.SizeAccess * width
			hi := lo + cfg.SizeAccess*width
			if err := handle.ReadAtInto(pos, arrays[j][lo:hi]); err != nil {
				return err
			}
			pos += int64(cfg.SizeAccess * width)
		}
	}
	return handle.Close()
}
