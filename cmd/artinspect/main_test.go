package main

import (
	"encoding/binary"
	"os"
	"path/filepath"
	"testing"
)

// TestInspectRejectsMalformedIndex: -inspect reads files from disk, so an
// index or record header that lies about sizes is an error, not a panic or
// an allocation the lie dictates.
func TestInspectRejectsMalformedIndex(t *testing.T) {
	const ntrees = 6
	dir := t.TempDir()
	good := filepath.Join(dir, "good.art")
	if err := doGenerate(good, ntrees, 2, 3, 7); err != nil {
		t.Fatal(err)
	}
	if err := doInspect(good); err != nil {
		t.Fatalf("freshly generated checkpoint refused: %v", err)
	}
	img, err := os.ReadFile(good)
	if err != nil {
		t.Fatal(err)
	}
	entry := func(b []byte, i int) []byte { return b[12+8*i:] }
	offset := func(i int) uint64 { return binary.LittleEndian.Uint64(entry(img, i)) }
	for name, corrupt := range map[string]func(b []byte) []byte{
		"count with the top bit set": func(b []byte) []byte {
			b[11] |= 0x80
			return b
		},
		"descending offsets": func(b []byte) []byte {
			binary.LittleEndian.PutUint64(entry(b, 2), offset(3))
			binary.LittleEndian.PutUint64(entry(b, 3), offset(2))
			return b
		},
		"record shorter than a header": func(b []byte) []byte {
			binary.LittleEndian.PutUint64(entry(b, 3), offset(2)+10)
			return b
		},
		"offset past EOF": func(b []byte) []byte {
			binary.LittleEndian.PutUint64(entry(b, ntrees), offset(ntrees)+1<<20)
			return b
		},
		"index cut short": func(b []byte) []byte { return b[:12+8*ntrees] },
		"record header overflows": func(b []byte) []byte {
			rec := b[offset(4):]
			binary.LittleEndian.PutUint32(rec[12:], 1<<29) // vars
			binary.LittleEndian.PutUint32(rec[20:], 1<<31) // root-level cells
			return b
		},
	} {
		path := filepath.Join(dir, "bad.art")
		if err := os.WriteFile(path, corrupt(append([]byte(nil), img...)), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := doInspect(path); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}
