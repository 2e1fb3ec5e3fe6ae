package extent

import "encoding/binary"

// RunWire is the wire width of one run: offset and length, each a
// little-endian uint64. Fixed-width and byte-order-pinned, so encoded run
// lists are part of the deterministic replay surface. Every layer that
// ships run lists — OCIO's exchange messages, TCIO's collective-read
// intents, the delegation tier's read intents — frames these records its
// own way and encodes them here.
const RunWire = 16

// AppendRuns appends the wire records of runs to dst.
func AppendRuns(dst []byte, runs []Extent) []byte {
	for _, r := range runs {
		dst = binary.LittleEndian.AppendUint64(dst, uint64(r.Off))
		dst = binary.LittleEndian.AppendUint64(dst, uint64(r.Len))
	}
	return dst
}

// RunAt decodes record i of an encoded run list; b must hold it.
func RunAt(b []byte, i int) Extent {
	b = b[i*RunWire : (i+1)*RunWire]
	return Extent{
		Off: int64(binary.LittleEndian.Uint64(b)),
		Len: int64(binary.LittleEndian.Uint64(b[8:])),
	}
}
