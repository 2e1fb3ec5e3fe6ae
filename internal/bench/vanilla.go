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
	return vanilla(c, cfg, arrays, (*mpiio.File).WriteAt)
}

// VanillaRead reads the workload back with independent MPI-IO.
func VanillaRead(c *mpi.Comm, cfg SyntheticConfig, arrays [][]byte) error {
	return vanilla(c, cfg, arrays, (*mpiio.File).ReadAtInto)
}

func vanilla(c *mpi.Comm, cfg SyntheticConfig, arrays [][]byte, access func(*mpiio.File, int64, []byte) error) error {
	handle, err := mpiio.Open(c, cfg.FileName)
	if err != nil {
		return err
	}
	if err := eachPiece(c, cfg, arrays, func(_ int, pos int64, piece []byte) error {
		return access(handle, pos, piece)
	}); err != nil {
		return err
	}
	return handle.Close()
}
