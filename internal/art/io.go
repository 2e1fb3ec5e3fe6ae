package art

import (
	"encoding/binary"
	"fmt"

	"github.com/tcio/tcio/internal/mpi"
	"github.com/tcio/tcio/internal/mpiio"
	"github.com/tcio/tcio/internal/tcio"
)

// Library selects the I/O stack a checkpoint goes through — the two
// contenders of the paper's Figs. 9-10.
type Library int

// Available I/O backends.
const (
	// LibTCIO checkpoints through transparent collective I/O.
	LibTCIO Library = iota
	// LibVanilla checkpoints through vanilla MPI-IO: every piece is an
	// independent file system access.
	LibVanilla
)

// String names the library.
func (l Library) String() string {
	switch l {
	case LibTCIO:
		return "TCIO"
	case LibVanilla:
		return "MPI-IO"
	default:
		return fmt.Sprintf("Library(%d)", int(l))
	}
}

// backend is the minimal surface Dump/Restore need; it hides whether reads
// are lazy (TCIO) or immediate (vanilla MPI-IO). Both directions lend the
// library a buffer the caller keeps: WriteAt has copied data when it
// returns, so the caller may overwrite it at once; ReadAt may fill dst any
// time up to the next Fetch, so the caller leaves dst alone until then.
type backend interface {
	WriteAt(off int64, data []byte) error
	ReadAt(off int64, dst []byte) error
	Fetch() error
	Close() error
}

type tcioBackend struct{ f *tcio.File }

func (b tcioBackend) WriteAt(off int64, data []byte) error { return b.f.WriteAt(off, data) }
func (b tcioBackend) ReadAt(off int64, dst []byte) error   { return b.f.ReadAt(off, dst) }
func (b tcioBackend) Fetch() error                         { return b.f.Fetch() }
func (b tcioBackend) Close() error                         { return b.f.Close() }

type vanillaBackend struct{ f *mpiio.File }

func (b vanillaBackend) WriteAt(off int64, data []byte) error { return b.f.WriteAt(off, data) }
func (b vanillaBackend) ReadAt(off int64, dst []byte) error   { return b.f.ReadAtInto(off, dst) }
func (b vanillaBackend) Fetch() error                         { return nil }
func (b vanillaBackend) Close() error                         { return b.f.Close() }

// checkpoint file header: magic, tree count, then ntrees+1 record offsets.
const ckptMagic = 0x41525443 // "ARTC"

func ckptHeaderSize(ntrees int) int64 { return 4 + 8 + int64(ntrees+1)*8 }

// DecodeIndex reads (through read, which fills dst from offset off) and
// validates the index of a size-byte checkpoint, returning its ntrees+1
// record offsets. Nothing in a file is trusted: the index must fit the
// file, the first record start where the index ends, every record hold at
// least a header, and the last end where the file does.
func DecodeIndex(read func(off int64, dst []byte) error, size int64) ([]int64, error) {
	var head [12]byte // magic + count first, then the offset table
	if size < ckptHeaderSize(0) {
		return nil, fmt.Errorf("art: %d bytes cannot hold a checkpoint index", size)
	}
	if err := read(0, head[:]); err != nil {
		return nil, err
	}
	if binary.LittleEndian.Uint32(head[:]) != ckptMagic {
		return nil, fmt.Errorf("art: bad checkpoint magic %#x", binary.LittleEndian.Uint32(head[:]))
	}
	count := binary.LittleEndian.Uint64(head[4:])
	if count > uint64(size-ckptHeaderSize(0))/8 {
		return nil, fmt.Errorf("art: index of %d trees does not fit in %d bytes", count, size)
	}
	table := make([]byte, (count+1)*8)
	if err := read(int64(len(head)), table); err != nil {
		return nil, err
	}
	offsets := make([]int64, count+1)
	// What the next entry may hold: the first is where the index ends.
	least, most := ckptHeaderSize(int(count)), ckptHeaderSize(int(count))
	for i := range offsets {
		offsets[i] = int64(binary.LittleEndian.Uint64(table[8*i:]))
		if offsets[i] < least || offsets[i] > most {
			return nil, fmt.Errorf("art: index entry %d is %d, outside [%d,%d]", i, offsets[i], least, most)
		}
		least, most = offsets[i]+headerSize, size
	}
	if offsets[count] != size {
		return nil, fmt.Errorf("art: records end at %d of a %d-byte checkpoint", offsets[count], size)
	}
	return offsets, nil
}

// segmentsFor sizes a TCIO level-2 configuration to cover total bytes.
func segmentsFor(total, segSize int64, procs int) int {
	perRank := (total + int64(procs)*segSize - 1) / (int64(procs) * segSize)
	if perRank < 1 {
		perRank = 1
	}
	return int(perRank)
}

// Dump writes a checkpoint of the given trees (this rank's share; IDs are
// global indices) through the selected library. ntrees is the global tree
// count; segSize tunes TCIO's level-2 segments (0 = file system stripe).
// Dump is collective.
func Dump(c *mpi.Comm, lib Library, name string, trees []*Tree, ntrees int, segSize int64) error {
	// Establish global record offsets: every rank shares (id, size) pairs.
	blob := make([]byte, 4+16*len(trees))
	binary.LittleEndian.PutUint32(blob, uint32(len(trees)))
	var largest int64
	for i, t := range trees {
		if t.ID < 0 || t.ID >= int64(ntrees) {
			return fmt.Errorf("art: tree id %d outside [0,%d)", t.ID, ntrees)
		}
		binary.LittleEndian.PutUint64(blob[4+16*i:], uint64(t.ID))
		binary.LittleEndian.PutUint64(blob[12+16*i:], uint64(t.EncodedSize()))
		largest = max(largest, t.EncodedSize())
	}
	all, err := c.AllgatherBytes(blob)
	if err != nil {
		return err
	}
	sizes := make([]int64, ntrees)
	for _, b := range all {
		n := int(binary.LittleEndian.Uint32(b))
		for i := 0; i < n; i++ {
			id := int64(binary.LittleEndian.Uint64(b[4+16*i:]))
			sizes[id] = int64(binary.LittleEndian.Uint64(b[12+16*i:]))
		}
	}
	offsets := make([]int64, ntrees+1)
	offsets[0] = ckptHeaderSize(ntrees)
	for i := 0; i < ntrees; i++ {
		if sizes[i] == 0 {
			return fmt.Errorf("art: no rank owns tree %d", i)
		}
		offsets[i+1] = offsets[i] + sizes[i]
	}
	total := offsets[ntrees]

	be, err := openBackend(c, lib, name, tcio.WriteMode, segSize, total)
	if err != nil {
		return err
	}

	// Rank 0 writes the self-describing index.
	if c.Rank() == 0 {
		hdr := make([]byte, ckptHeaderSize(ntrees))
		binary.LittleEndian.PutUint32(hdr, ckptMagic)
		binary.LittleEndian.PutUint64(hdr[4:], uint64(ntrees))
		for i, off := range offsets {
			binary.LittleEndian.PutUint64(hdr[12+8*i:], uint64(off))
		}
		if err := be.WriteAt(0, hdr); err != nil {
			return err
		}
	}

	// Each rank writes its trees piece by piece — ART's natural I/O shape —
	// out of one record buffer, re-encoded into once a tree's last WriteAt
	// has returned.
	rec := make([]byte, 0, largest)
	for _, t := range trees {
		base := offsets[t.ID]
		rec = t.appendRecord(rec[:0])
		err := t.shape().walk(func(_, _ int, off, n int64) error {
			return be.WriteAt(base+off, rec[off:off+n])
		})
		if err != nil {
			return err
		}
	}
	if err := be.Close(); err != nil {
		return err
	}
	// Dump is collective: no rank may proceed (e.g. to a restart) until
	// the checkpoint is complete. TCIO's Close already synchronizes;
	// vanilla MPI-IO needs the explicit barrier.
	return c.Barrier()
}

// Restore reads back this rank's round-robin share of the checkpoint and
// returns the reconstructed trees in ID order. Restore is collective.
func Restore(c *mpi.Comm, lib Library, name string) ([]*Tree, error) {
	size := c.FS().Open(name).Size()
	be, err := openBackend(c, lib, name, tcio.ReadMode, 0, size)
	if err != nil {
		return nil, err
	}

	// The index and each record's header are needed before anything else
	// can be asked for, so they are fetched as they are read.
	read := func(off int64, dst []byte) error {
		if err := be.ReadAt(off, dst); err != nil {
			return err
		}
		return be.Fetch()
	}
	offsets, err := DecodeIndex(read, size)
	if err != nil {
		return nil, err
	}

	// One record buffer for the rank, as long as its longest record: Decode
	// copies everything out, so the next tree is read over the last.
	mine := OwnedBy(len(offsets)-1, c.Size(), c.Rank())
	var largest int64
	for _, id := range mine {
		largest = max(largest, offsets[id+1]-offsets[id])
	}
	buf := make([]byte, largest)
	out := make([]*Tree, 0, len(mine))
	for _, id := range mine {
		base := offsets[id]
		rec := buf[:offsets[id+1]-base]

		// Header first: the record is self-describing, so the piece
		// layout is known only after parsing it.
		if err := read(base, rec[:headerSize]); err != nil {
			return nil, err
		}
		_, s, _, err := parseHeader(rec, int64(len(rec)))
		if err != nil {
			return nil, fmt.Errorf("art: tree %d: %w", id, err)
		}
		// Then each array with its own (lazy) read call.
		err = s.walk(func(l, _ int, off, n int64) error {
			if l < 0 {
				return nil // the header is in
			}
			return be.ReadAt(base+off, rec[off:off+n])
		})
		if err != nil {
			return nil, err
		}
		if err := be.Fetch(); err != nil {
			return nil, err
		}
		t, err := Decode(rec)
		if err != nil {
			return nil, fmt.Errorf("art: tree %d: %w", id, err)
		}
		out = append(out, t)
	}
	if err := be.Close(); err != nil {
		return nil, err
	}
	if err := c.Barrier(); err != nil {
		return nil, err
	}
	return out, nil
}

// openBackend builds the requested I/O stack over the shared file.
func openBackend(c *mpi.Comm, lib Library, name string, mode tcio.Mode, segSize, total int64) (backend, error) {
	switch lib {
	case LibTCIO:
		if segSize == 0 {
			segSize = c.FS().Config().StripeSize
		}
		f, err := tcio.Open(c, name, mode, tcio.Config{
			SegmentSize: segSize,
			NumSegments: segmentsFor(total, segSize, c.Size()),
		})
		if err != nil {
			return nil, err
		}
		return tcioBackend{f}, nil
	case LibVanilla:
		f, err := mpiio.Open(c, name)
		if err != nil {
			return nil, err
		}
		return vanillaBackend{f}, nil
	default:
		return nil, fmt.Errorf("art: unknown library %d", int(lib))
	}
}

// GenerateForRank deterministically builds rank's round-robin share of the
// paper's workload: ntrees trees with Table IV cell counts and `vars`
// variables per cell. All ranks derive the same global plan (the size draw
// is seeded), then materialize only their own trees.
func GenerateForRank(ntrees, vars, procs, rank int, seed int64) []*Tree {
	sizes := SegmentSizes(ntrees, TableIV.Mu, TableIV.Sigma, seed)
	var out []*Tree
	for _, id := range OwnedBy(ntrees, procs, rank) {
		// Per-tree RNG so generation is independent of ownership.
		rng := TreeRNG(seed, int64(id))
		out = append(out, Generate(int64(id), sizes[id], vars, rng))
	}
	return out
}
