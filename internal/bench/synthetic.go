// Package bench is the experiment harness: it regenerates every table and
// figure of the paper's evaluation (§V) on the simulated cluster.
//
// The synthetic benchmark reproduces the paper's workload (Table I): each
// of P processes holds NUMarray in-memory arrays of LENarray elements and
// writes them to a shared file interleaved round-robin — process p's k-th
// block of SIZEaccess elements per array lands at file block k*P + p. Three
// methods are compared (Table I's `method` parameter): OCIO (ROMIO two-
// phase collective I/O, Program 2), TCIO (Program 3), and vanilla MPI-IO.
//
// Paper-scale datasets are mapped onto test-scale buffers with the
// machine's ByteScale: algorithms move realBytes = simBytes/scale, while
// the network, file system, and memory models charge simulated bytes. The
// stripe size shrinks by the same factor, so message and request counts —
// the drivers of the performance shapes — match paper scale exactly.
package bench

import (
	"errors"
	"fmt"

	"github.com/tcio/tcio/internal/datatype"
	"github.com/tcio/tcio/internal/mpi"
	"github.com/tcio/tcio/internal/simtime"
)

// Method is Table I's `method` parameter.
type Method int

// Benchmark methods.
const (
	// MethodOCIO is the original collective I/O (ROMIO two-phase).
	MethodOCIO Method = iota
	// MethodTCIO is transparent collective I/O.
	MethodTCIO
	// MethodVanilla is vanilla MPI-IO: independent per-piece accesses.
	MethodVanilla
)

// String names the method as the paper does.
func (m Method) String() string {
	if names := [...]string{"OCIO", "TCIO", "MPI-IO"}; m >= 0 && int(m) < len(names) {
		return names[m]
	}
	return fmt.Sprintf("Method(%d)", int(m))
}

// SyntheticConfig mirrors the paper's Table I configuration parameters.
type SyntheticConfig struct {
	// Method selects the I/O implementation under test.
	Method Method
	// Procs is NUMproc.
	Procs int
	// TypeArray lists the per-array element types (Table I: "i,d" means
	// one int array and one double array). Its length is NUMarray.
	TypeArray []datatype.Type
	// LenArray is LENarray: elements per array per process, in real
	// elements (multiply by the machine's ByteScale for simulated size).
	LenArray int
	// SizeAccess is SIZEaccess: array elements per I/O access.
	SizeAccess int
	// Verify makes readers check every byte against the generator.
	Verify bool
	// FileName is the shared file's name.
	FileName string

	// TCIO ablation knobs (effective with MethodTCIO only; see the
	// corresponding tcio.Config switches).
	Level1Disabled        bool
	DemandPopulate        bool
	SegmentSizeMultiplier float64 // level-2 segment size relative to the stripe (0 = 1)
}

// blockSize is one process's bytes per iteration: all arrays' SIZEaccess
// elements.
func (c SyntheticConfig) blockSize() int64 {
	var n int64
	for _, t := range c.TypeArray {
		n += t.Size() * int64(c.SizeAccess)
	}
	return n
}

func (c SyntheticConfig) iters() int { return c.LenArray / c.SizeAccess }

// FileBytes is the shared file's size in real bytes.
func (c SyntheticConfig) FileBytes() int64 {
	return c.blockSize() * int64(c.iters()) * int64(c.Procs)
}

func (c SyntheticConfig) validate() error {
	if c.Procs < 1 {
		return fmt.Errorf("bench: %d procs", c.Procs)
	}
	if len(c.TypeArray) == 0 {
		return errors.New("bench: no arrays")
	}
	if c.SizeAccess < 1 || c.LenArray < 1 || c.LenArray%c.SizeAccess != 0 {
		return fmt.Errorf("bench: LenArray=%d SizeAccess=%d", c.LenArray, c.SizeAccess)
	}
	if c.FileName == "" {
		return errors.New("bench: no file name")
	}
	return nil
}

// chargePieces charges the application-level cost of touching n pieces
// (e.g. Program 2's combine/scatter loops), scaled like all per-item costs.
func chargePieces(c *mpi.Comm, n int) {
	c.Compute(simtime.Duration(150) * simtime.Duration(n) * simtime.Duration(c.Machine().ByteScale))
}

// element generates the deterministic byte at position b of element e of
// array j on the given rank — the ground truth readers verify against.
func element(rank, j, e, b int) byte {
	return byte(rank*131 + j*67 + e*29 + b*11 + 7)
}

// makeArrays allocates one rank's arrays, charging them to the rank's
// memory share (the application's own data counts toward the paper's
// memory budget analysis), and with fill materializes their contents. On
// error the arrays allocated so far are returned for freeing.
func makeArrays(c *mpi.Comm, cfg SyntheticConfig, fill bool) ([][]byte, error) {
	arrays := make([][]byte, 0, len(cfg.TypeArray))
	for j, typ := range cfg.TypeArray {
		width := int(typ.Size())
		buf, err := c.Malloc(int64(cfg.LenArray) * int64(width))
		if err != nil {
			return arrays, fmt.Errorf("application array %d: %w", j, err)
		}
		arrays = append(arrays, buf)
		for i := 0; fill && i < len(buf); i++ {
			buf[i] = element(c.Rank(), j, i/width, i%width)
		}
	}
	return arrays, nil
}

func freeArrays(c *mpi.Comm, arrays [][]byte) {
	for _, a := range arrays {
		c.Free(a)
	}
}

// eachPiece visits the rank's pieces in the interleaved order of Program 3:
// iteration i's SIZEaccess elements of every array, with the file offset
// they belong at.
func eachPiece(c *mpi.Comm, cfg SyntheticConfig, arrays [][]byte, visit func(i int, pos int64, piece []byte) error) error {
	blockSize := cfg.blockSize()
	for i := 0; i < cfg.iters(); i++ {
		pos := int64(c.Rank())*blockSize + int64(i)*blockSize*int64(c.Size())
		for j := range arrays {
			n := cfg.SizeAccess * int(cfg.TypeArray[j].Size())
			if err := visit(i, pos, arrays[j][i*n:(i+1)*n]); err != nil {
				return err
			}
			pos += int64(n)
		}
	}
	return nil
}

// checkBytes compares bytes read from file offset base with the
// workload's generator.
func checkBytes(rank int, base int64, buf []byte, want func(off int64) byte) error {
	for i, got := range buf {
		if w := want(base + int64(i)); got != w {
			return fmt.Errorf("rank %d offset %d: got %#x want %#x", rank, base+int64(i), got, w)
		}
	}
	return nil
}

// verifyArrays checks read-back arrays against the generator.
func verifyArrays(c *mpi.Comm, cfg SyntheticConfig, arrays [][]byte) error {
	for j, arr := range arrays {
		width := cfg.TypeArray[j].Size()
		want := func(i int64) byte { return element(c.Rank(), j, int(i/width), int(i%width)) }
		if err := checkBytes(c.Rank(), 0, arr, want); err != nil {
			return fmt.Errorf("array %d: %w", j, err)
		}
	}
	return nil
}

// Result is a full write+read benchmark run.
type Result struct {
	Write PhaseResult
	Read  PhaseResult
}

// RunSynthetic executes the write phase and then the read phase of the
// synthetic benchmark in the given environment, with memory enforcement on
// (the paper's Fig. 6/7 failure mode depends on it).
func RunSynthetic(env *Env, cfg SyntheticConfig) (Result, error) {
	if err := cfg.validate(); err != nil {
		return Result{}, err
	}
	var res Result
	res.Write = runPhase(env, cfg, true)
	if res.Write.Failed {
		// The paper still reads the dataset written by a working run when
		// the writer fails; here reads require a written file, so mark the
		// read phase failed for the same reason.
		res.Read = res.Write
		return res, nil
	}
	res.Read = runPhase(env, cfg, false)
	return res, nil
}

// runPhase runs one direction of the benchmark in a fresh world that
// shares the environment's file system.
func runPhase(env *Env, cfg SyntheticConfig, write bool) PhaseResult {
	env.FS.Reset()
	return env.Run(cfg.Procs, cfg.FileBytes()*env.Scale, func(c *mpi.Comm, _ *Tally) error {
		return workload(c, cfg, write)
	})
}

// programs are the methods' write and read programs.
var programs = map[Method][2]func(*mpi.Comm, SyntheticConfig, [][]byte) error{
	MethodOCIO:    {Program2Write, Program2Read},
	MethodTCIO:    {Program3Write, Program3Read},
	MethodVanilla: {VanillaWrite, VanillaRead},
}

// workload runs the method's write or read program over the rank's arrays
// and verifies a read if asked.
func workload(c *mpi.Comm, cfg SyntheticConfig, write bool) error {
	program, ok := programs[cfg.Method]
	if !ok {
		return fmt.Errorf("bench: unknown method %v", cfg.Method)
	}
	arrays, err := makeArrays(c, cfg, write)
	defer freeArrays(c, arrays)
	if err != nil {
		return err
	}
	if write {
		return program[0](c, cfg, arrays)
	}
	if err := program[1](c, cfg, arrays); err != nil || !cfg.Verify {
		return err
	}
	return verifyArrays(c, cfg, arrays)
}
