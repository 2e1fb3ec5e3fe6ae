// Package art is a miniature of the ART (Adaptive Refinement Tree)
// cosmology code used in the paper's real-application evaluation (§V.C).
//
// ART is a cell-based AMR code: the 3D volume is divided into uniform root
// cells; any cell may be refined into eight finer cells, and refinements
// are organized as octrees represented with a fully threaded tree (FTT).
// Tree structure changes during the run, so trees differ in depth and size,
// and a checkpoint consists of many variable-size records — per-level
// structure arrays and per-variable value arrays — that are adjacent in the
// file. No single MPI derived datatype can describe this layout, which is
// precisely why the paper evaluates TCIO against vanilla MPI-IO here:
// OCIO's file views cannot express it.
//
// The mini-app reproduces the I/O-relevant behaviour faithfully:
//
//   - trees are generated with cell counts drawn from the paper's Table IV
//     distribution (Normal, μ=2048, σ=128, seed=5, 1024 segments dealt
//     round-robin to ranks);
//   - each tree serializes to a self-describing record (header, per-level
//     refinement maps, per-level per-variable value arrays);
//   - checkpoints are written piece by piece, one small access per array.
package art

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
)

// Magic identifies a serialized FTT record.
const Magic = 0x46545431 // "FTT1"

// MaxDepth bounds tree depth; refinement stops there.
const MaxDepth = 12

// Tree is one fully threaded refinement tree rooted at a single root cell.
type Tree struct {
	ID   int64
	Vars int
	// Level l holds the cells at refinement depth l. Levels[0] is the
	// root cell. A refined cell contributes 8 children to the next level.
	Levels [][]Cell
}

// Cell is one AMR cell: a refinement flag and its variable values.
type Cell struct {
	Refined bool
	Vals    []float64
}

// NumCells reports the total cell count across all levels.
func (t *Tree) NumCells() int {
	n := 0
	for _, lv := range t.Levels {
		n += len(lv)
	}
	return n
}

// Depth reports the number of levels.
func (t *Tree) Depth() int { return len(t.Levels) }

// Generate builds a tree of roughly targetCells cells by randomly refining
// cells level by level until the budget is met. Generation is deterministic
// for a given rng state.
func Generate(id int64, targetCells, vars int, rng *rand.Rand) *Tree {
	if targetCells < 1 {
		targetCells = 1
	}
	if vars < 1 {
		vars = 1
	}
	t := &Tree{ID: id, Vars: vars}
	// vals is the backing array of the level being built: addCell carves
	// the next cell's Vals out of it and draws them.
	vals := make([]float64, vars)
	addCell := func(lv []Cell, level int) []Cell {
		cv := vals[:vars:vars]
		vals = vals[vars:]
		for v := range cv {
			cv[v] = float64(id)*1e6 + float64(level)*1e3 + rng.Float64()
		}
		return append(lv, Cell{Vals: cv})
	}
	t.Levels = [][]Cell{addCell(nil, 0)}
	total := 1
	for level := 0; total < targetCells && level < MaxDepth-1; level++ {
		cur := t.Levels[level]
		// Children come eight at a time until the budget is met.
		room := min(8*len(cur), (targetCells-total+7)/8*8)
		vals = make([]float64, room*vars)
		next := make([]Cell, 0, room)
		for i := range cur {
			if total >= targetCells {
				break
			}
			// Refine with decreasing probability by depth, so trees get
			// the top-heavy shape of AMR hierarchies.
			if rng.Float64() < 0.9 {
				cur[i].Refined = true
				for c := 0; c < 8; c++ {
					next = addCell(next, level+1)
				}
				total += 8
			}
		}
		if len(next) == 0 {
			break
		}
		t.Levels = append(t.Levels, next[:len(next):len(next)])
	}
	return t
}

// Equal reports whether two trees are structurally and numerically equal.
func (t *Tree) Equal(o *Tree) bool {
	if t.ID != o.ID || t.Vars != o.Vars || len(t.Levels) != len(o.Levels) {
		return false
	}
	for l := range t.Levels {
		if len(t.Levels[l]) != len(o.Levels[l]) {
			return false
		}
		for i := range t.Levels[l] {
			a, b := t.Levels[l][i], o.Levels[l][i]
			if a.Refined != b.Refined || len(a.Vals) != len(b.Vals) {
				return false
			}
			for v := range a.Vals {
				if a.Vals[v] != b.Vals[v] {
					return false
				}
			}
		}
	}
	return true
}

// Piece is one serialized array of a tree record: the unit of I/O the
// application issues. Off is the byte offset within the record.
type Piece struct {
	Name string
	Off  int64
	Data []byte
}

// headerSize is the fixed-size record header: magic, id, vars, depth,
// then MaxDepth level counts (zero-padded).
const headerSize = 4 + 8 + 4 + 4 + 4*MaxDepth

// EncodedSize reports the serialized record length.
func (t *Tree) EncodedSize() int64 {
	n := int64(headerSize)
	for _, lv := range t.Levels {
		n += int64(len(lv))                     // refinement map, one byte per cell
		n += int64(len(lv)) * int64(t.Vars) * 8 // value arrays
	}
	return n
}

// shape is what fixes a record's layout: the variable count and the cell
// count of each level, as the header carries them.
type shape struct {
	vars, depth int
	counts      [MaxDepth]int
}

func (t *Tree) shape() shape {
	s := shape{vars: t.Vars, depth: len(t.Levels)}
	for l, lv := range t.Levels {
		s.counts[l] = len(lv)
	}
	return s
}

// walk calls fn with the offset and length of each array of the record, in
// file order: the header (level -1), then per level its refinement map
// (v -1) and vars value arrays. It stops at fn's first error. This is the
// sequence of individual I/O calls ART issues per tree.
func (s shape) walk(fn func(level, v int, off, n int64) error) error {
	err := fn(-1, -1, 0, headerSize)
	off := int64(headerSize)
	for l := 0; l < s.depth && err == nil; l++ {
		for v := -1; v < s.vars && err == nil; v++ {
			n := int64(s.counts[l])
			if v >= 0 {
				n *= 8
			}
			err = fn(l, v, off, n)
			off += n
		}
	}
	return err
}

// appendRecord appends the serialized record to dst; with room in dst it
// allocates nothing.
func (t *Tree) appendRecord(dst []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, Magic)
	dst = binary.LittleEndian.AppendUint64(dst, uint64(t.ID))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(t.Vars))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(t.Levels)))
	for _, cells := range t.shape().counts { // zero-padded to MaxDepth
		dst = binary.LittleEndian.AppendUint32(dst, uint32(cells))
	}
	for _, lv := range t.Levels {
		for i := range lv {
			var refined byte
			if lv[i].Refined {
				refined = 1
			}
			dst = append(dst, refined)
		}
		for v := 0; v < t.Vars; v++ {
			for i := range lv {
				dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(lv[i].Vals[v]))
			}
		}
	}
	return dst
}

// Encode serializes the record densely.
func (t *Tree) Encode() []byte {
	return t.appendRecord(make([]byte, 0, t.EncodedSize()))
}

// Pieces decomposes the record into its constituent arrays, in file order:
// the unit of I/O the application issues. The pieces are views of one
// encoding, each capped at its own end.
func (t *Tree) Pieces() []Piece {
	rec := t.Encode()
	pieces := make([]Piece, 0, 1+len(t.Levels)*(1+t.Vars))
	t.shape().walk(func(l, v int, off, n int64) error {
		name := "header"
		if l >= 0 && v < 0 {
			name = fmt.Sprintf("refine[%d]", l)
		} else if l >= 0 {
			name = fmt.Sprintf("var%d[%d]", v, l)
		}
		pieces = append(pieces, Piece{Name: name, Off: off, Data: rec[off : off+n : off+n]})
		return nil
	})
	return pieces
}

// parseHeader parses the header of a size-byte record into the tree's ID,
// its shape and its total cell count. Header fields are 32-bit and come
// from disk, so every level is bounded by the bytes left for it before it
// is multiplied by anything, and an empty level is refused (it would leave
// vars unbounded): what a caller sizes or walks from an accepted shape is
// O(size).
func parseHeader(hdr []byte, size int64) (id int64, s shape, cells int, err error) {
	if len(hdr) < headerSize {
		return 0, s, 0, fmt.Errorf("art: header needs %d bytes, have %d", headerSize, len(hdr))
	}
	if binary.LittleEndian.Uint32(hdr[0:]) != Magic {
		return 0, s, 0, fmt.Errorf("art: bad magic %#x", binary.LittleEndian.Uint32(hdr[0:]))
	}
	id = int64(binary.LittleEndian.Uint64(hdr[4:]))
	s.vars = int(binary.LittleEndian.Uint32(hdr[12:]))
	s.depth = int(binary.LittleEndian.Uint32(hdr[16:]))
	if s.depth < 1 || s.depth > MaxDepth {
		return 0, s, 0, fmt.Errorf("art: depth %d out of range", s.depth)
	}
	left, perCell := size-headerSize, 1+8*int64(s.vars)
	for l := 0; l < s.depth; l++ {
		n := int64(binary.LittleEndian.Uint32(hdr[20+4*l:]))
		if n == 0 || n > left/perCell {
			return 0, s, 0, fmt.Errorf("art: record truncated at level with %d cells", n)
		}
		left -= n * perCell
		cells += int(n)
		s.counts[l] = int(n)
	}
	return id, s, cells, nil
}

// Decode reconstructs a tree from its serialized record. The tree aliases
// nothing in rec; its cells are one slab and their Vals another, carved
// with full-slice caps so an append to one cannot reach its neighbour.
func Decode(rec []byte) (*Tree, error) {
	id, s, cells, err := parseHeader(rec, int64(len(rec)))
	if err != nil {
		return nil, err
	}
	t := &Tree{ID: id, Vars: s.vars, Levels: make([][]Cell, s.depth)}
	slab, vals := make([]Cell, cells), make([]float64, cells*s.vars)
	var lvals []float64 // the level's values, cell by cell: value v of cell i at i*vars+v
	s.walk(func(l, v int, off, n int64) error {
		switch {
		case l < 0: // the header, parsed above
		case v < 0:
			lv := slab[:n:n]
			slab = slab[n:]
			lvals, vals = vals[:len(lv)*s.vars], vals[len(lv)*s.vars:]
			for i := range lv {
				lv[i] = Cell{Refined: rec[off+int64(i)] == 1, Vals: lvals[i*s.vars : (i+1)*s.vars : (i+1)*s.vars]}
			}
			t.Levels[l] = lv
		default:
			arr := rec[off : off+n]
			for i := v; i < len(lvals); i += s.vars {
				lvals[i] = math.Float64frombits(binary.LittleEndian.Uint64(arr))
				arr = arr[8:]
			}
		}
		return nil
	})
	return t, nil
}

// SegmentSizes draws n segment lengths (cell counts) from the paper's
// Table IV distribution: Normal(mu, sigma) with the given seed. Values are
// clamped to at least 1 cell.
func SegmentSizes(n int, mu, sigma float64, seed int64) []int {
	rng := rand.New(rand.NewSource(seed))
	out := make([]int, n)
	for i := range out {
		v := int(rng.NormFloat64()*sigma + mu)
		if v < 1 {
			v = 1
		}
		out[i] = v
	}
	return out
}

// TableIV holds the paper's segment-generation parameters.
var TableIV = struct {
	Segments int
	Mu       float64
	Sigma    float64
	Seed     int64
}{Segments: 1024, Mu: 2048, Sigma: 128, Seed: 5}

// TreeRNG derives a deterministic per-tree random stream, so a tree's
// contents do not depend on which rank materializes it.
func TreeRNG(seed, id int64) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + id + 1))
}

// OwnedBy reports the tree indices assigned to rank under round-robin
// dealing of n trees across procs ranks.
func OwnedBy(n, procs, rank int) []int {
	var out []int
	for i := rank; i < n; i += procs {
		out = append(out, i)
	}
	return out
}
