package bench

import (
	"bytes"
	"testing"

	"github.com/tcio/tcio/internal/pfs"
)

// groundTruth computes the expected file image straight from the workload
// definition, independently of every I/O path under test: process p's i-th
// block of SIZEaccess elements per array lands at file block i*P + p, arrays
// in declaration order within the block, bytes from the element generator.
func groundTruth(cfg SyntheticConfig) []byte {
	img := make([]byte, cfg.FileBytes())
	blockSize := cfg.blockSize()
	for p := 0; p < cfg.Procs; p++ {
		for i := 0; i < cfg.iters(); i++ {
			pos := int64(p)*blockSize + int64(i)*blockSize*int64(cfg.Procs)
			for j, typ := range cfg.TypeArray {
				width := int(typ.Size())
				for k := 0; k < cfg.SizeAccess; k++ {
					e := i*cfg.SizeAccess + k
					for b := 0; b < width; b++ {
						img[pos] = element(p, j, e, b)
						pos++
					}
				}
			}
		}
	}
	return img
}

// TestWritersMatchGroundTruth cross-checks every writer — TCIO on a
// one-OST stripe (each rank's posted drain serialises at the target) and on
// a seven-OST stripe (it overlaps across targets), OCIO's two-phase
// aggregation, and vanilla MPI-IO's POSIX-style independent writes —
// against the independently computed file image. A shared-algebra bug that
// shifted every extent consistently would pass round-trip verification;
// it cannot pass this. The demand case reads the seven-OST file back with
// DemandPopulate, every byte verified against the element generator.
func TestWritersMatchGroundTruth(t *testing.T) {
	cases := []struct {
		name    string
		method  Method
		stripes int
		demand  bool
	}{
		{"tcio-serial-drain", MethodTCIO, 1, false},
		{"tcio-parallel-drain", MethodTCIO, 7, false},
		{"tcio-demand-read", MethodTCIO, 7, true},
		{"ocio", MethodOCIO, 1, false},
		{"vanilla", MethodVanilla, 1, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// 1 KiB stripes: the 12 KiB file spans twelve, so a seven-OST
			// stripe puts segments on every target.
			env, err := NewEnv(1024)
			if err != nil {
				t.Fatal(err)
			}
			cfg := smallSweepCfg(tc.method, 4, "truth-"+tc.name)
			cfg.DemandPopulate = tc.demand
			fscfg := env.FS.Config()
			if span := int64(tc.stripes) * fscfg.StripeSize; cfg.FileBytes() < span {
				t.Fatalf("a %d B file does not reach all %d OSTs of a %d B stripe", cfg.FileBytes(), tc.stripes, fscfg.StripeSize)
			}
			fscfg.StripeCount = tc.stripes
			env.FS = pfs.New(fscfg)
			res, err := RunSynthetic(env, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.Write.Failed || res.Read.Failed {
				t.Fatalf("run failed: %+v / %+v", res.Write, res.Read)
			}
			want := groundTruth(cfg)
			got := env.FS.Open(cfg.FileName).Snapshot()
			if int64(len(got)) < int64(len(want)) {
				t.Fatalf("file is %d bytes, workload defines %d", len(got), len(want))
			}
			if !bytes.Equal(got[:len(want)], want) {
				for off := range want {
					if got[off] != want[off] {
						t.Fatalf("first mismatch at offset %d: got %#x want %#x",
							off, got[off], want[off])
					}
				}
			}
		})
	}
}
