package art

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"testing/quick"

	"github.com/tcio/tcio/internal/cluster"
	"github.com/tcio/tcio/internal/mpi"
	"github.com/tcio/tcio/internal/simtime"
)

func TestGenerateMeetsTarget(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	tr := Generate(7, 500, 2, rng)
	if tr.ID != 7 || tr.Vars != 2 {
		t.Fatalf("ID/Vars = %d/%d", tr.ID, tr.Vars)
	}
	if n := tr.NumCells(); n < 500 {
		t.Fatalf("NumCells = %d, want >= 500", n)
	}
	if tr.Depth() < 2 {
		t.Fatalf("Depth = %d", tr.Depth())
	}
	// Structure sanity: children come in multiples of 8 from refinements.
	for l := 1; l < tr.Depth(); l++ {
		refined := 0
		for _, cell := range tr.Levels[l-1] {
			if cell.Refined {
				refined++
			}
		}
		if len(tr.Levels[l]) != refined*8 {
			t.Fatalf("level %d has %d cells for %d refined parents", l, len(tr.Levels[l]), refined)
		}
	}
}

func TestGenerateMinimums(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	tr := Generate(0, 0, 0, rng)
	if tr.NumCells() < 1 || tr.Vars != 1 {
		t.Fatalf("degenerate tree: cells=%d vars=%d", tr.NumCells(), tr.Vars)
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	tr := Generate(42, 300, 3, rng)
	rec := tr.Encode()
	if int64(len(rec)) != tr.EncodedSize() {
		t.Fatalf("Encode len %d != EncodedSize %d", len(rec), tr.EncodedSize())
	}
	back, err := Decode(rec)
	if err != nil {
		t.Fatal(err)
	}
	if !tr.Equal(back) {
		t.Fatal("decode(encode(tree)) != tree")
	}
}

func TestEncodeDecodeProperty(t *testing.T) {
	f := func(seed int64, target uint16, vars uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		tr := Generate(seed, int(target%2000), int(vars%4)+1, rng)
		back, err := Decode(tr.Encode())
		return err == nil && tr.Equal(back)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, err := Decode([]byte{1, 2, 3}); err == nil {
		t.Fatal("short record accepted")
	}
	rng := rand.New(rand.NewSource(4))
	rec := Generate(1, 100, 2, rng).Encode()
	rec[0] = 0xFF // corrupt magic
	if _, err := Decode(rec); err == nil {
		t.Fatal("bad magic accepted")
	}
	rec2 := Generate(1, 100, 2, rng).Encode()
	if _, err := Decode(rec2[:len(rec2)-5]); err == nil {
		t.Fatal("truncated record accepted")
	}
}

func TestPiecesTileRecordExactly(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	tr := Generate(9, 200, 2, rng)
	pieces := tr.Pieces()
	covered := int64(0)
	expectedNext := int64(0)
	for _, p := range pieces {
		if p.Off != expectedNext {
			t.Fatalf("piece %q at %d, expected %d (gap or overlap)", p.Name, p.Off, expectedNext)
		}
		expectedNext = p.Off + int64(len(p.Data))
		covered += int64(len(p.Data))
	}
	if covered != tr.EncodedSize() {
		t.Fatalf("pieces cover %d of %d bytes", covered, tr.EncodedSize())
	}
	// Piece count: 1 header + depth*(1 refinement + vars values).
	want := 1 + tr.Depth()*(1+tr.Vars)
	if len(pieces) != want {
		t.Fatalf("%d pieces, want %d", len(pieces), want)
	}
}

func TestSegmentSizesTableIV(t *testing.T) {
	sizes := SegmentSizes(TableIV.Segments, TableIV.Mu, TableIV.Sigma, TableIV.Seed)
	if len(sizes) != 1024 {
		t.Fatalf("len = %d", len(sizes))
	}
	// Deterministic for the fixed seed.
	again := SegmentSizes(TableIV.Segments, TableIV.Mu, TableIV.Sigma, TableIV.Seed)
	for i := range sizes {
		if sizes[i] != again[i] {
			t.Fatal("not deterministic")
		}
	}
	// Statistics roughly match Normal(2048, 128).
	var sum, sq float64
	for _, v := range sizes {
		sum += float64(v)
	}
	mean := sum / float64(len(sizes))
	for _, v := range sizes {
		sq += (float64(v) - mean) * (float64(v) - mean)
	}
	sd := math.Sqrt(sq / float64(len(sizes)))
	if mean < 2000 || mean > 2100 {
		t.Fatalf("mean = %.1f", mean)
	}
	if sd < 100 || sd > 160 {
		t.Fatalf("sd = %.1f", sd)
	}
}

func TestOwnedByPartition(t *testing.T) {
	const n, procs = 100, 7
	seen := make(map[int]int)
	for r := 0; r < procs; r++ {
		for _, id := range OwnedBy(n, procs, r) {
			if id%procs != r {
				t.Fatalf("rank %d owns %d", r, id)
			}
			seen[id]++
		}
	}
	if len(seen) != n {
		t.Fatalf("%d trees covered, want %d", len(seen), n)
	}
	for id, c := range seen {
		if c != 1 {
			t.Fatalf("tree %d owned %d times", id, c)
		}
	}
}

func TestGenerateForRankDeterministicAcrossOwnership(t *testing.T) {
	// The same tree must have identical content regardless of the number
	// of ranks that deal it out.
	a := GenerateForRank(8, 2, 2, 0, 11) // trees 0,2,4,6
	b := GenerateForRank(8, 2, 4, 0, 11) // trees 0,4
	if !a[0].Equal(b[0]) {
		t.Fatal("tree 0 differs between 2-rank and 4-rank decompositions")
	}
	if !a[2].Equal(b[1]) {
		t.Fatal("tree 4 differs between decompositions")
	}
}

func runArt(t *testing.T, procs int, fn func(*mpi.Comm) error) {
	t.Helper()
	if _, err := mpi.Run(mpi.Config{Procs: procs, Machine: cluster.Lonestar()}, fn); err != nil {
		t.Fatal(err)
	}
}

func testDumpRestore(t *testing.T, lib Library, procs, ntrees int) {
	t.Helper()
	name := fmt.Sprintf("ckpt-%v-%d", lib, procs)
	runArt(t, procs, func(c *mpi.Comm) error {
		trees := GenerateForRank(ntrees, 2, c.Size(), c.Rank(), 99)
		// Use small trees for tests.
		if err := Dump(c, lib, name, trees, ntrees, 256); err != nil {
			return err
		}
		back, err := Restore(c, lib, name)
		if err != nil {
			return err
		}
		if len(back) != len(trees) {
			return fmt.Errorf("restored %d trees, want %d", len(back), len(trees))
		}
		for i := range trees {
			if !trees[i].Equal(back[i]) {
				return fmt.Errorf("rank %d: tree %d mismatch after restart", c.Rank(), trees[i].ID)
			}
		}
		return nil
	})
}

func TestDumpRestoreTCIO(t *testing.T)    { testDumpRestore(t, LibTCIO, 4, 12) }
func TestDumpRestoreVanilla(t *testing.T) { testDumpRestore(t, LibVanilla, 4, 12) }

func TestDumpRestoreSingleRank(t *testing.T) { testDumpRestore(t, LibTCIO, 1, 5) }

func TestCrossLibraryCompatibility(t *testing.T) {
	// A checkpoint written with TCIO must restore through vanilla MPI-IO
	// and vice versa: the file format is identical.
	const procs, ntrees = 3, 9
	runArt(t, procs, func(c *mpi.Comm) error {
		trees := GenerateForRank(ntrees, 2, c.Size(), c.Rank(), 5)
		if err := Dump(c, LibTCIO, "cross", trees, ntrees, 256); err != nil {
			return err
		}
		back, err := Restore(c, LibVanilla, "cross")
		if err != nil {
			return err
		}
		for i := range trees {
			if !trees[i].Equal(back[i]) {
				return fmt.Errorf("tree %d differs across libraries", trees[i].ID)
			}
		}
		return nil
	})
}

func TestDumpRejectsBadIDs(t *testing.T) {
	runArt(t, 1, func(c *mpi.Comm) error {
		tr := Generate(5, 10, 1, rand.New(rand.NewSource(1)))
		if err := Dump(c, LibTCIO, "bad", []*Tree{tr}, 3, 256); err == nil {
			return fmt.Errorf("tree id 5 with ntrees=3 accepted")
		}
		return nil
	})
}

func TestDumpDetectsMissingTrees(t *testing.T) {
	runArt(t, 1, func(c *mpi.Comm) error {
		tr := Generate(0, 10, 1, rand.New(rand.NewSource(1)))
		if err := Dump(c, LibTCIO, "missing", []*Tree{tr}, 2, 256); err == nil {
			return fmt.Errorf("missing tree 1 not detected")
		}
		return nil
	})
}

// overflowHeader is an 84-byte record whose header claims one level of 2^31
// cells with 2^29 variables each: sized naively that is 2^63 + 2^31 bytes,
// which wraps negative and used to pass the truncation check.
func overflowHeader() []byte {
	rec := Generate(0, 1, 1, rand.New(rand.NewSource(1))).Encode()
	binary.LittleEndian.PutUint32(rec[12:], 1<<29)
	binary.LittleEndian.PutUint32(rec[20:], 1<<31)
	return append(rec, make([]byte, 84-len(rec))...)
}

func TestDecodeRejectsOverflowingHeader(t *testing.T) {
	for _, tc := range []struct {
		name        string
		vars, cells uint32
	}{
		{"2^29 vars x 2^31 cells", 1 << 29, 1 << 31},
		{"2^32-1 vars x 2^32-1 cells", 1<<32 - 1, 1<<32 - 1},
		{"2^31 cells of one byte", 0, 1 << 31},
		{"2^32-1 vars, no cells to bound them", 1<<32 - 1, 0},
	} {
		rec := overflowHeader()
		binary.LittleEndian.PutUint32(rec[12:], tc.vars)
		binary.LittleEndian.PutUint32(rec[20:], tc.cells)
		if tr, err := Decode(rec); err == nil {
			t.Errorf("%s: an %d-byte record decoded to %d cells", tc.name, len(rec), tr.NumCells())
		}
	}
}

// FuzzDecode: Decode never panics, allocates in proportion to the bytes it
// was given whatever their header claims, and what it accepts survives
// another trip through the codec (ROADMAP 5e). Trees are compared by their
// encodings: a fuzzed value array holds NaNs, which Equal cannot match.
// The seeds under testdata/fuzz are a few hundred bytes on purpose: the
// engine minimizes every input that finds coverage, byte by byte, and on
// Table IV-sized records that took the whole of a 30 s CI leg.
func FuzzDecode(f *testing.F) {
	f.Fuzz(func(t *testing.T, rec []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		tr, err := Decode(rec)
		runtime.ReadMemStats(&after)
		// A cell costs the record one byte at least and the heap a 32-byte
		// Cell; the slack covers the Tree, an error and a quiet runtime.
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 48*uint64(len(rec))+16<<10 {
			t.Fatalf("Decode of %d bytes allocated %d", len(rec), grew)
		}
		if err != nil {
			return
		}
		enc := tr.Encode()
		again, err := Decode(enc)
		if err != nil {
			t.Fatalf("Decode rejects the encoding of a tree it returned: %v", err)
		}
		if !bytes.Equal(again.Encode(), enc) {
			t.Fatal("Decode(Encode(Decode(rec))) differs from Decode(rec)")
		}
	})
}

// TestCodecAllocations pins what the record path costs the heap: encoding
// into a buffer with room is free, and a decoded tree is four objects (the
// Tree, its level list, one slab of cells, one of values) however many
// cells it has.
func TestCodecAllocations(t *testing.T) {
	for _, cells := range []int{1, 2048, 16384} {
		tr := Generate(1, cells, 2, rand.New(rand.NewSource(int64(cells))))
		rec := make([]byte, 0, tr.EncodedSize())
		if n := testing.AllocsPerRun(20, func() { rec = tr.appendRecord(rec[:0]) }); n != 0 {
			t.Errorf("%d cells: appendRecord into a sized buffer allocates %v times", cells, n)
		}
		if n := testing.AllocsPerRun(20, func() {
			if _, err := Decode(rec); err != nil {
				t.Fatal(err)
			}
		}); n > 4 {
			t.Errorf("%d cells: Decode allocates %v times, want <= 4", cells, n)
		}
	}
}

// TestDumpRestoreAllocatesPerTree: a rank's checkpoint and restart cost the
// heap a few objects per tree — one record buffer each way, four objects
// per restored tree — not one per piece written or per cell decoded.
func TestDumpRestoreAllocatesPerTree(t *testing.T) {
	roundTrip := func(lib Library, trees []*Tree) float64 {
		return testing.AllocsPerRun(3, func() {
			runArt(t, 1, func(c *mpi.Comm) error {
				if err := Dump(c, lib, "allocs", trees, len(trees), 0); err != nil {
					return err
				}
				_, err := Restore(c, lib, "allocs")
				return err
			})
		})
	}
	const k = 32
	var trees []*Tree
	pieces, cells := 0, 0
	for id := 0; id < k; id++ {
		tr := Generate(int64(id), 4096, 5, TreeRNG(1, int64(id)))
		trees = append(trees, tr)
		pieces += 1 + tr.Depth()*(1+tr.Vars)
		cells += tr.NumCells()
	}
	for _, lib := range []Library{LibTCIO, LibVanilla} {
		// What a world, a file and a one-cell checkpoint cost anyway.
		budget := roundTrip(lib, []*Tree{Generate(0, 1, 1, TreeRNG(1, 0))}) + 10*k
		if lib == LibVanilla {
			// Not art's: the file system's extent-lock table takes an
			// object per independent write request (extent.SplitAt).
			budget += float64(pieces)
		}
		if got := roundTrip(lib, trees); got > budget {
			t.Errorf("%v: %d trees (%d pieces, %d cells) cost %v objects, want <= %v", lib, k, pieces, cells, got, budget)
		}
	}
}

// TestRestoreRejectsGarbage: nothing in a checkpoint's index is trusted.
// Every rank reads the same index, so every rank must refuse it with the
// same error at the same point — no panic, and no rank left waiting in a
// collective its peers never enter. A record that contradicts its index
// entry fails its owner, which stops the world.
func TestRestoreRejectsGarbage(t *testing.T) {
	const procs, ntrees = 4, 8
	var good []byte
	runArt(t, procs, func(c *mpi.Comm) error {
		trees := GenerateForRank(ntrees, 2, c.Size(), c.Rank(), 7)
		if err := Dump(c, LibVanilla, "good", trees, ntrees, 256); err != nil {
			return err
		}
		if c.Rank() == 0 {
			good = c.FS().Open("good").Snapshot()
		}
		return nil
	})
	entry := func(img []byte, i int) []byte { return img[12+8*i:] }
	offset := func(i int) uint64 { return binary.LittleEndian.Uint64(entry(good, i)) }
	for _, tc := range []struct {
		name    string
		corrupt func(img []byte) []byte
		record  bool // the index holds; a record contradicts it
	}{
		{name: "all zeros", corrupt: func([]byte) []byte { return make([]byte, 64) }},
		{name: "too short for an index", corrupt: func(img []byte) []byte { return img[:10] }},
		{name: "count with the top bit set", corrupt: func(img []byte) []byte {
			img[11] |= 0x80
			return img
		}},
		{name: "count beyond the file", corrupt: func(img []byte) []byte {
			binary.LittleEndian.PutUint64(img[4:], uint64(len(img)))
			return img
		}},
		{name: "index cut short", corrupt: func(img []byte) []byte { return img[:12+8*ntrees] }},
		{name: "descending offsets", corrupt: func(img []byte) []byte {
			binary.LittleEndian.PutUint64(entry(img, 3), offset(4))
			binary.LittleEndian.PutUint64(entry(img, 4), offset(3))
			return img
		}},
		{name: "record shorter than a header", corrupt: func(img []byte) []byte {
			binary.LittleEndian.PutUint64(entry(img, 3), offset(2)+headerSize-1)
			return img
		}},
		{name: "negative offset", corrupt: func(img []byte) []byte {
			binary.LittleEndian.PutUint64(entry(img, 2), 1<<63+offset(2))
			return img
		}},
		{name: "offset past EOF", corrupt: func(img []byte) []byte {
			binary.LittleEndian.PutUint64(entry(img, ntrees), offset(ntrees)+1<<20)
			return img
		}},
		{name: "first record not where the index ends", corrupt: func(img []byte) []byte {
			binary.LittleEndian.PutUint64(entry(img, 0), offset(0)+8)
			return img
		}},
		{name: "bytes after the last record", corrupt: func(img []byte) []byte { return append(img, 1, 2, 3) }},
		{name: "record header outgrows its index entry", record: true, corrupt: func(img []byte) []byte {
			binary.LittleEndian.PutUint32(img[offset(5)+20:], 1<<20)
			return img
		}},
		{name: "record header overflows", record: true, corrupt: func(img []byte) []byte {
			copy(img[offset(5):], overflowHeader()[:headerSize])
			return img
		}},
	} {
		for _, lib := range []Library{LibTCIO, LibVanilla} {
			img := tc.corrupt(append([]byte(nil), good...))
			errs := make([]error, procs)
			_, err := mpi.Run(mpi.Config{Procs: procs, Machine: cluster.Lonestar()}, func(c *mpi.Comm) error {
				if c.Rank() == 0 {
					c.FS().Open("bad").StoreDirect(0, img)
				}
				if err := c.Barrier(); err != nil {
					return err
				}
				_, errs[c.Rank()] = Restore(c, lib, "bad")
				if tc.record {
					return errs[c.Rank()]
				}
				return nil
			})
			switch {
			case tc.record:
				owner := errs[5%procs]
				if err == nil || strings.Contains(err.Error(), "panicked") || owner == nil || !strings.Contains(owner.Error(), "art: tree 5") {
					t.Errorf("%s via %v: want tree 5 refused, its owner got %v, the world %v", tc.name, lib, owner, err)
				}
			case err != nil:
				t.Errorf("%s via %v: %v", tc.name, lib, err)
			default:
				for r, e := range errs {
					if e == nil || e.Error() != errs[0].Error() {
						t.Errorf("%s via %v: rank %d got %v, rank 0 got %v", tc.name, lib, r, e, errs[0])
					}
				}
			}
		}
	}
}

func TestLibraryString(t *testing.T) {
	if LibTCIO.String() != "TCIO" || LibVanilla.String() != "MPI-IO" {
		t.Fatal("Library.String wrong")
	}
	if Library(9).String() != "Library(9)" {
		t.Fatal("unknown library string wrong")
	}
}

// TestOneRankCheckpointTwin pins the model side of the record path. A
// one-rank world is a totally ordered program, so its makespan is exact:
// the same eight trees dumped and restored through each library must cost
// the virtual nanoseconds, file-system requests and messages they cost
// before the record buffers were pooled (PR 19, commit af15c10, where this
// test reads the same numbers). If one moves, a request or a virtual-time
// charge moved, not just an allocation.
//
// TCIO's makespan is 5 120 ns shorter since read-mode Open stopped waiting
// for its preload: the index's first ReadAt (60 ns of lazy recording), its
// shared Lock (2 × 2 µs latency + 0.6 µs one-sided setup = 4 600 ns) and its
// get's issue (0.4 µs send overhead + 60 ns for its one run = 460 ns) now run
// while the file's one segment is still landing, and the get's bytes leave
// the instant it lands. A one-rank barrier costs nothing, so nothing else
// moves.
//
// The last row arms the touch hook at every touch, yielding the host thread
// each time: one rank has no host order to perturb, so the hook could show
// here only by charging virtual time.
func TestOneRankCheckpointTwin(t *testing.T) {
	for _, tc := range []struct {
		lib                            Library
		ns, fsWrites, fsReads, netMsgs int64
		hooked                         bool
	}{
		{LibTCIO, 1594915 - 5120, 1, 1, 19, false},
		{LibVanilla, 77381600, 105, 106, 0, false},
		{LibTCIO, 1594915 - 5120, 1, 1, 19, true},
	} {
		touches := 0
		if tc.hooked {
			mpi.SetTouchHook(func(int, string, simtime.Time) { touches++; runtime.Gosched() })
		}
		rep, err := mpi.Run(mpi.Config{Procs: 1, Machine: cluster.Lonestar()}, func(c *mpi.Comm) error {
			trees := GenerateForRank(8, 2, 1, 0, 7)
			if err := Dump(c, tc.lib, "twin", trees, len(trees), 0); err != nil {
				return err
			}
			back, err := Restore(c, tc.lib, "twin")
			if err != nil {
				return err
			}
			for i := range trees {
				if !trees[i].Equal(back[i]) {
					return fmt.Errorf("tree %d mismatch after restart", i)
				}
			}
			return nil
		})
		mpi.SetTouchHook(nil)
		if err != nil {
			t.Fatal(err)
		}
		if tc.hooked && touches == 0 {
			t.Error("the hooked run passed no touch")
		}
		if int64(rep.MaxTime) != tc.ns || rep.FS.Writes != tc.fsWrites || rep.FS.Reads != tc.fsReads || rep.Net.Messages != tc.netMsgs {
			t.Errorf("%v: %d ns, %d fs writes, %d fs reads, %d messages; the parent read %d, %d, %d, %d",
				tc.lib, rep.MaxTime, rep.FS.Writes, rep.FS.Reads, rep.Net.Messages, tc.ns, tc.fsWrites, tc.fsReads, tc.netMsgs)
		}
	}
}
