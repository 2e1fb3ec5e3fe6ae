package bench

// This file is the Go rendition of the paper's Program 2: the synthetic
// benchmark written against OCIO. It exists verbatim — combine buffer,
// derived datatypes, file view, single collective call — so that
// cmd/loccount can compare its length against Program 3 (program3.go), the
// TCIO version of the same workload, reproducing the paper's programming-
// effort comparison.

import (
	"github.com/tcio/tcio/internal/datatype"
	"github.com/tcio/tcio/internal/mpi"
	"github.com/tcio/tcio/internal/mpiio"
)

// Program2Write writes the interleaved workload with OCIO, following the
// paper's Program 2 step by step.
func Program2Write(c *mpi.Comm, cfg SyntheticConfig, arrays [][]byte) error {
	// BEGIN PROGRAM 2 WRITE
	blockSize := cfg.blockSize()
	iters := cfg.iters()
	// 1. Create an application level buffer.
	buffer, err := c.Malloc(blockSize * int64(iters))
	if err != nil {
		return err
	}
	// 2. Combine data in the buffer by two for loops.
	at := 0
	for i := 0; i < iters; i++ {
		for j := range arrays {
			width := int(cfg.TypeArray[j].Size())
			lo := i * cfg.SizeAccess * width
			hi := lo + cfg.SizeAccess*width
			at += copy(buffer[at:], arrays[j][lo:hi])
		}
	}
	chargePieces(c, iters*len(arrays))
	// 3. Open file.
	handle, err := mpiio.Open(c, cfg.FileName)
	if err != nil {
		return err
	}
	// 4.-7. Set out the file view: etype describes one combined block...
	eType, err := datatype.Contiguous(int(blockSize), datatype.Byte)
	if err != nil {
		return err
	}
	// 8.-9. ...and filetype strides one block every num_procs blocks.
	fileType, err := datatype.Vector(iters, 1, c.Size(), eType)
	if err != nil {
		return err
	}
	fileType, err = datatype.Resized(fileType, int64(iters*c.Size())*eType.Extent())
	if err != nil {
		return err
	}
	// 5. disp <- my_rank * block_size
	disp := int64(c.Rank()) * blockSize
	// 10. MPI_File_set_view.
	if err := handle.SetView(disp, eType, fileType); err != nil {
		return err
	}
	// 11. One collective write call outputs the whole buffer.
	if err := handle.WriteAll(buffer); err != nil {
		return err
	}
	// 12. Close.
	if err := handle.Close(); err != nil {
		return err
	}
	// 13. Release the buffer.
	c.Free(buffer)
	return nil
	// END PROGRAM 2 WRITE
}

// Program2Read reads the interleaved workload back with OCIO: the same file
// view, one collective read, then scattering the combine buffer into the
// application arrays.
func Program2Read(c *mpi.Comm, cfg SyntheticConfig, arrays [][]byte) error {
	// BEGIN PROGRAM 2 READ
	blockSize := cfg.blockSize()
	iters := cfg.iters()
	handle, err := mpiio.Open(c, cfg.FileName)
	if err != nil {
		return err
	}
	eType, err := datatype.Contiguous(int(blockSize), datatype.Byte)
	if err != nil {
		return err
	}
	fileType, err := datatype.Vector(iters, 1, c.Size(), eType)
	if err != nil {
		return err
	}
	fileType, err = datatype.Resized(fileType, int64(iters*c.Size())*eType.Extent())
	if err != nil {
		return err
	}
	if err := handle.SetView(int64(c.Rank())*blockSize, eType, fileType); err != nil {
		return err
	}
	// The collective read returns the application-level combine buffer,
	// which counts against the process's memory budget.
	if err := c.Reserve(c.Machine().Scale(blockSize * int64(iters))); err != nil {
		return err
	}
	defer c.Release(c.Machine().Scale(blockSize * int64(iters)))
	buffer, err := handle.ReadAll(blockSize * int64(iters))
	if err != nil {
		return err
	}
	if err := handle.Close(); err != nil {
		return err
	}
	// Scatter the combine buffer back into the application arrays.
	at := 0
	for i := 0; i < iters; i++ {
		for j := range arrays {
			width := int(cfg.TypeArray[j].Size())
			lo := i * cfg.SizeAccess * width
			hi := lo + cfg.SizeAccess*width
			at += copy(arrays[j][lo:hi], buffer[at:])
		}
	}
	chargePieces(c, iters*len(arrays))
	return nil
	// END PROGRAM 2 READ
}
