package extent

import (
	"encoding/binary"
	"fmt"
	"slices"
)

// RunWire is the wire width of one run: offset and length, each a
// little-endian uint64. Fixed-width and byte-order-pinned, so encoded run
// lists are part of the deterministic replay surface. OCIO's exchange
// messages ship run lists in these records, framed behind a run count and
// ahead of a payload.
const RunWire = 16

// PutRun writes the wire record of r at the front of b.
func PutRun(b []byte, r Extent) {
	binary.LittleEndian.PutUint64(b, uint64(r.Off))
	binary.LittleEndian.PutUint64(b[8:], uint64(r.Len))
}

// DecodeRuns appends the runs encoded in b, which must be whole records, to
// dst. It does not check them: that is the caller's job.
func DecodeRuns(dst []Extent, b []byte) ([]Extent, error) {
	if len(b)%RunWire != 0 {
		return dst, fmt.Errorf("extent: run list of %d bytes is not a whole number of %d-byte records", len(b), RunWire)
	}
	dst = slices.Grow(dst, len(b)/RunWire)
	for le := binary.LittleEndian; len(b) > 0; b = b[RunWire:] {
		dst = append(dst, Extent{Off: int64(le.Uint64(b)), Len: int64(le.Uint64(b[8:]))})
	}
	return dst, nil
}
