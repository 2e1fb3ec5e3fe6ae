package bench

// This file is the Go rendition of the paper's Program 3: the same
// interleaved workload as Program 2 (program2.go), but written against
// TCIO. No combine buffer, no derived datatypes, no file view — the
// application just seeks and writes each piece of data where it belongs.
// cmd/loccount compares the two files to reproduce the paper's
// programming-effort result.

import (
	"github.com/tcio/tcio/internal/mpi"
	"github.com/tcio/tcio/internal/tcio"
)

// tcioConfigFor sizes the level-2 buffers to cover the benchmark's file:
// the paper's "a user needs to specify the segment size and the number of
// segments per process".
func tcioConfigFor(c *mpi.Comm, cfg SyntheticConfig) tcio.Config {
	segSize := c.FS().Config().StripeSize
	if cfg.SegmentSizeMultiplier > 0 {
		segSize = int64(float64(segSize) * cfg.SegmentSizeMultiplier)
		if segSize < 1 {
			segSize = 1
		}
	}
	perRank := (cfg.FileBytes() + int64(c.Size())*segSize - 1) / (int64(c.Size()) * segSize)
	if perRank < 1 {
		perRank = 1
	}
	return tcio.Config{
		SegmentSize:    segSize,
		NumSegments:    int(perRank),
		DisableLevel1:  cfg.Level1Disabled,
		DemandPopulate: cfg.DemandPopulate,
	}
}

// Program3Write writes the interleaved workload with TCIO, following the
// paper's Program 3 step by step.
func Program3Write(c *mpi.Comm, cfg SyntheticConfig, arrays [][]byte) error {
	// BEGIN PROGRAM 3 WRITE
	// 1. block_size <- (sizeof(int)+sizeof(double)) * SIZEaccess
	blockSize := cfg.blockSize()
	// 2. handle <- tcio_open(file_name, mode)
	handle, err := tcio.Open(c, cfg.FileName, tcio.WriteMode, tcioConfigFor(c, cfg))
	if err != nil {
		return err
	}
	// 3. Output each piece of data where it belongs, in POSIX fashion.
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
	// 4. tcio_close(handle)
	return handle.Close()
	// END PROGRAM 3 WRITE
}

// Program3Read reads the workload back with TCIO: the same POSIX-style
// loop issuing lazy reads straight into the application arrays.
func Program3Read(c *mpi.Comm, cfg SyntheticConfig, arrays [][]byte) error {
	// BEGIN PROGRAM 3 READ
	blockSize := cfg.blockSize()
	handle, err := tcio.Open(c, cfg.FileName, tcio.ReadMode, tcioConfigFor(c, cfg))
	if err != nil {
		return err
	}
	for i := 0; i < cfg.iters(); i++ {
		pos := int64(c.Rank())*blockSize + int64(i)*blockSize*int64(c.Size())
		for j := range arrays {
			width := int(cfg.TypeArray[j].Size())
			lo := i * cfg.SizeAccess * width
			hi := lo + cfg.SizeAccess*width
			if err := handle.ReadAt(pos, arrays[j][lo:hi]); err != nil {
				return err
			}
			pos += int64(cfg.SizeAccess * width)
		}
	}
	// tcio_close fetches any still-pending lazy reads before returning.
	return handle.Close()
	// END PROGRAM 3 READ
}
