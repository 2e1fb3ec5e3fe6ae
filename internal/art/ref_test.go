package art

// The record codec and the generator as they stood before PR 20, kept
// verbatim as test oracles: one heap slice per piece, one Vals slice per
// cell, the layout spelled out in each function. The product code must
// produce the same bytes, the same piece list, Equal trees, and leave the
// random stream where these leave it.

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

func refGenerate(id int64, targetCells, vars int, rng *rand.Rand) *Tree {
	if targetCells < 1 {
		targetCells = 1
	}
	if vars < 1 {
		vars = 1
	}
	t := &Tree{ID: id, Vars: vars}
	mkCell := func(level int) Cell {
		vals := make([]float64, vars)
		for v := range vals {
			vals[v] = float64(id)*1e6 + float64(level)*1e3 + rng.Float64()
		}
		return Cell{Vals: vals}
	}
	t.Levels = [][]Cell{{mkCell(0)}}
	total := 1
	for level := 0; total < targetCells && level < MaxDepth-1; level++ {
		if level >= len(t.Levels) {
			break
		}
		var next []Cell
		for i := range t.Levels[level] {
			if total >= targetCells {
				break
			}
			// Refine with decreasing probability by depth, so trees get
			// the top-heavy shape of AMR hierarchies.
			if rng.Float64() < 0.9 {
				t.Levels[level][i].Refined = true
				for c := 0; c < 8; c++ {
					next = append(next, mkCell(level+1))
				}
				total += 8
			}
		}
		if len(next) == 0 {
			break
		}
		t.Levels = append(t.Levels, next)
	}
	return t
}

func refPieces(t *Tree) []Piece {
	pieces := make([]Piece, 0, 1+len(t.Levels)*(1+t.Vars))

	hdr := make([]byte, headerSize)
	binary.LittleEndian.PutUint32(hdr[0:], Magic)
	binary.LittleEndian.PutUint64(hdr[4:], uint64(t.ID))
	binary.LittleEndian.PutUint32(hdr[12:], uint32(t.Vars))
	binary.LittleEndian.PutUint32(hdr[16:], uint32(len(t.Levels)))
	for l, lv := range t.Levels {
		binary.LittleEndian.PutUint32(hdr[20+4*l:], uint32(len(lv)))
	}
	pieces = append(pieces, Piece{Name: "header", Off: 0, Data: hdr})

	off := int64(headerSize)
	for l, lv := range t.Levels {
		ref := make([]byte, len(lv))
		for i, cell := range lv {
			if cell.Refined {
				ref[i] = 1
			}
		}
		pieces = append(pieces, Piece{Name: fmt.Sprintf("refine[%d]", l), Off: off, Data: ref})
		off += int64(len(ref))
		for v := 0; v < t.Vars; v++ {
			vals := make([]byte, 8*len(lv))
			for i, cell := range lv {
				binary.LittleEndian.PutUint64(vals[8*i:], math.Float64bits(cell.Vals[v]))
			}
			pieces = append(pieces, Piece{Name: fmt.Sprintf("var%d[%d]", v, l), Off: off, Data: vals})
			off += int64(len(vals))
		}
	}
	return pieces
}

func refEncode(t *Tree) []byte {
	out := make([]byte, t.EncodedSize())
	for _, p := range refPieces(t) {
		copy(out[p.Off:], p.Data)
	}
	return out
}

func refDecodeHeader(hdr []byte) (id int64, vars int, counts []int, err error) {
	if len(hdr) < headerSize {
		return 0, 0, nil, fmt.Errorf("art: header needs %d bytes, have %d", headerSize, len(hdr))
	}
	if binary.LittleEndian.Uint32(hdr[0:]) != Magic {
		return 0, 0, nil, fmt.Errorf("art: bad magic %#x", binary.LittleEndian.Uint32(hdr[0:]))
	}
	id = int64(binary.LittleEndian.Uint64(hdr[4:]))
	vars = int(binary.LittleEndian.Uint32(hdr[12:]))
	depth := int(binary.LittleEndian.Uint32(hdr[16:]))
	if depth < 1 || depth > MaxDepth {
		return 0, 0, nil, fmt.Errorf("art: depth %d out of range", depth)
	}
	counts = make([]int, depth)
	for l := 0; l < depth; l++ {
		counts[l] = int(binary.LittleEndian.Uint32(hdr[20+4*l:]))
	}
	return id, vars, counts, nil
}

// refDecode must only see records whose header the bytes present bear out:
// its size check overflows (the bug TestDecodeRejectsOverflowingHeader
// pins), so it is never handed fuzzed or hand-corrupted headers.
func refDecode(rec []byte) (*Tree, error) {
	id, vars, counts, err := refDecodeHeader(rec)
	if err != nil {
		return nil, err
	}
	t := &Tree{ID: id, Vars: vars}
	off := int64(headerSize)
	for _, n := range counts {
		need := off + int64(n) + int64(n)*int64(vars)*8
		if need > int64(len(rec)) {
			return nil, fmt.Errorf("art: record truncated at level with %d cells", n)
		}
		cells := make([]Cell, n)
		for i := 0; i < n; i++ {
			cells[i].Refined = rec[off+int64(i)] == 1
		}
		off += int64(n)
		for v := 0; v < vars; v++ {
			for i := 0; i < n; i++ {
				bits := binary.LittleEndian.Uint64(rec[off+int64(8*i):])
				if cells[i].Vals == nil {
					cells[i].Vals = make([]float64, vars)
				}
				cells[i].Vals[v] = math.Float64frombits(bits)
			}
			off += int64(8 * n)
		}
		t.Levels = append(t.Levels, cells)
	}
	return t, nil
}

// chainTree builds the deepest tree the format holds: MaxDepth levels, one
// refined cell in each but the last (89 cells). Generate cannot reach that
// depth on any budget a test can afford — it fills a level before starting
// the next.
func chainTree(id int64, vars int, rng *rand.Rand) *Tree {
	t := &Tree{ID: id, Vars: vars}
	for l, n := 0, 1; l < MaxDepth; l, n = l+1, 8 {
		lv := make([]Cell, n)
		for i := range lv {
			lv[i].Vals = make([]float64, vars)
			for v := range lv[i].Vals {
				lv[i].Vals[v] = rng.NormFloat64()
			}
		}
		if l < MaxDepth-1 {
			lv[rng.Intn(n)].Refined = true
		}
		t.Levels = append(t.Levels, lv)
	}
	return t
}

// checkAgainstReference compares everything the codec produces for tr with
// what the old code produced.
func checkAgainstReference(t *testing.T, tr *Tree) {
	t.Helper()
	want := refEncode(tr)
	rec := tr.Encode()
	if !bytes.Equal(rec, want) {
		t.Fatalf("tree %d (%d cells, %d vars): Encode differs from the reference", tr.ID, tr.NumCells(), tr.Vars)
	}
	// appendRecord over a dirty, reused buffer writes every byte.
	dirty := bytes.Repeat([]byte{0xA5}, len(want)+7)
	if got := tr.appendRecord(dirty[:3]); !bytes.Equal(got[3:], want) || !bytes.Equal(got[:3], dirty[:3]) {
		t.Fatalf("tree %d: appendRecord into a used buffer differs from the reference", tr.ID)
	}
	pieces, refs := tr.Pieces(), refPieces(tr)
	if len(pieces) != len(refs) {
		t.Fatalf("tree %d: %d pieces, reference has %d", tr.ID, len(pieces), len(refs))
	}
	for i, p := range pieces {
		r := refs[i]
		if p.Name != r.Name || p.Off != r.Off || !bytes.Equal(p.Data, r.Data) {
			t.Fatalf("tree %d piece %d: %q at %d (%d bytes), reference %q at %d (%d bytes) or the bytes differ",
				tr.ID, i, p.Name, p.Off, len(p.Data), r.Name, r.Off, len(r.Data))
		}
		if cap(p.Data) != len(p.Data) {
			t.Fatalf("tree %d piece %q: cap %d beyond its %d bytes reaches the next piece", tr.ID, p.Name, cap(p.Data), len(p.Data))
		}
	}
	got, err := Decode(rec)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := refDecode(rec)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(ref) || !got.Equal(tr) {
		t.Fatalf("tree %d: Decode differs from the reference or from the tree encoded", tr.ID)
	}
	for l, lv := range got.Levels {
		if cap(lv) != len(lv) {
			t.Fatalf("tree %d level %d: cap %d beyond its %d cells reaches the next level", tr.ID, l, cap(lv), len(lv))
		}
		for i := range lv {
			if cap(lv[i].Vals) != tr.Vars {
				t.Fatalf("tree %d level %d cell %d: Vals cap %d, want %d", tr.ID, l, i, cap(lv[i].Vals), tr.Vars)
			}
		}
	}
}

// TestCodecMatchesReference runs the new codec and generator against the
// old ones over 2 160 seeded trees: one-cell, small, Table IV-sized and
// MaxDepth-deep, with 1, 2 and 5 variables.
func TestCodecMatchesReference(t *testing.T) {
	trees := 0
	for seed := int64(1); seed <= 180; seed++ {
		rng := rand.New(rand.NewSource(seed))
		for _, vars := range []int{1, 2, 5} {
			targets := []int{1, 2 + rng.Intn(120), int(rng.NormFloat64()*TableIV.Sigma + TableIV.Mu)}
			for _, target := range targets {
				// Two streams in the same state: the generators must
				// draw the same values in the same order, and as many.
				a, b := TreeRNG(seed, int64(target)), TreeRNG(seed, int64(target))
				got, want := Generate(seed, target, vars, a), refGenerate(seed, target, vars, b)
				if !got.Equal(want) {
					t.Fatalf("seed %d target %d vars %d: Generate differs from the reference", seed, target, vars)
				}
				if x, y := a.Int63(), b.Int63(); x != y {
					t.Fatalf("seed %d target %d vars %d: next draw %d after Generate, %d after the reference", seed, target, vars, x, y)
				}
				checkAgainstReference(t, got)
				trees++
			}
			checkAgainstReference(t, chainTree(seed, vars, rng))
			trees++
		}
	}
	if trees < 2000 {
		t.Fatalf("only %d trees compared", trees)
	}
}

// TestGenerateCarvesValsPerLevel: a generated cell's Vals cannot grow into
// its neighbour's, and a level cannot grow into spare capacity.
func TestGenerateCarvesValsPerLevel(t *testing.T) {
	tr := Generate(3, 600, 2, rand.New(rand.NewSource(8)))
	for l, lv := range tr.Levels {
		if cap(lv) != len(lv) {
			t.Fatalf("level %d: cap %d, len %d", l, cap(lv), len(lv))
		}
		for i := range lv {
			if cap(lv[i].Vals) != tr.Vars {
				t.Fatalf("level %d cell %d: Vals cap %d, want %d", l, i, cap(lv[i].Vals), tr.Vars)
			}
		}
	}
}
