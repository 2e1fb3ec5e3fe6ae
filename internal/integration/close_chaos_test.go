package integration

// Crash consistency of the write path under chaos, as a kill-point matrix:
// each case arms exactly one fault site so the injected transients can fire
// only inside one stage of the session — the level-1 flush shipping runs,
// the direct ship of unbuffered writes, the final drain inside Close, or the journal-truncate RPC that retires the
// epoch log. With a zero retry budget the first transient becomes permanent
// and the session must surface the typed faults.ErrExhaustedRetries — never
// success over a silently partial file. Every case is seed-pinned: the same
// seed re-injects the same faults and fails the same ranks across runs, and
// the identical seed and fault rules succeed byte-exactly under the default
// retry policy. The
// journal-truncate case additionally proves the failure contract of the
// epoch log: a Close that fails after its drain settled preserves the
// journal, and tcio.Recover replays it to the same byte-exact image.

import (
	"errors"
	"sync"
	"testing"

	"github.com/tcio/tcio/internal/faults"
	"github.com/tcio/tcio/internal/mpi"
	"github.com/tcio/tcio/internal/pfs"
	"github.com/tcio/tcio/internal/tcio"
)

const (
	closeChaosProcs   = 2
	closeChaosPiece   = 64
	closeChaosPerRank = 1 << 10
	closeChaosSeed    = 9
	closeChaosFile    = "close-chaos"
)

// closeChaosConfig is the session configuration of one matrix case.
func closeChaosConfig(retry *faults.RetryPolicy, mod func(*tcio.Config)) tcio.Config {
	cfg := tcio.Config{SegmentSize: 1 << 10, NumSegments: 16, Retry: retry}
	if mod != nil {
		mod(&cfg)
	}
	return cfg
}

// closeChaosWrite runs one seeded write session — every rank writes its
// block-cyclic pieces, flushes once mid-stream, and closes — and returns
// each rank's first session error, the injector, and the file system for
// post-mortem. A mid-stream Flush gives every kill point at least two
// windows (two level-1 flush epochs, two journal epochs) before the final
// drain.
func closeChaosWrite(t *testing.T, seed int64, site faults.Site, prob float64,
	retry *faults.RetryPolicy, mod func(*tcio.Config)) (map[int]error, *faults.Injector, *pfs.FileSystem) {
	t.Helper()
	in := faults.New(seed).Set(site, faults.Rule{Prob: prob})
	fs := chaosFS(in)
	cfg := closeChaosConfig(retry, mod)
	var mu sync.Mutex
	sessionErrs := make(map[int]error, closeChaosProcs)
	chaosRun(fs, in, closeChaosProcs, func(c *mpi.Comm) error { //nolint:errcheck // per-rank errors inspected via sessionErrs
		err := func() error {
			f, err := tcio.Open(c, closeChaosFile, tcio.WriteMode, cfg)
			if err != nil {
				return err
			}
			for off := int64(0); off < closeChaosPerRank; off += closeChaosPiece {
				var buf [closeChaosPiece]byte
				for b := range buf {
					buf[b] = chaosByte(c.Rank(), off+int64(b))
				}
				pos := int64(c.Rank())*closeChaosPiece + off*int64(c.Size())
				if err := f.WriteAt(pos, buf[:]); err != nil {
					return err
				}
				if off == closeChaosPerRank/2 {
					if err := f.Flush(); err != nil {
						return err
					}
				}
			}
			return f.Close()
		}()
		mu.Lock()
		sessionErrs[c.Rank()] = err
		mu.Unlock()
		return err
	})
	return sessionErrs, in, fs
}

// verifyCloseChaosImage checks the file holds every rank's pattern.
func verifyCloseChaosImage(t *testing.T, fs *pfs.FileSystem, context string) {
	t.Helper()
	snap := fs.Open(closeChaosFile).Snapshot()
	for rank := 0; rank < closeChaosProcs; rank++ {
		for off := int64(0); off < closeChaosPerRank; off += closeChaosPiece {
			pos := int64(rank)*closeChaosPiece + off*int64(closeChaosProcs)
			for b := int64(0); b < closeChaosPiece; b++ {
				if want, got := chaosByte(rank, off+b), snap[pos+b]; got != want {
					t.Fatalf("%s: rank %d file byte %d: got %#x, want %#x", context, rank, pos+b, got, want)
				}
			}
		}
	}
}

func TestCloseKillPointMatrix(t *testing.T) {
	cases := []struct {
		name string
		site faults.Site
		prob float64
		seed int64 // 0 = closeChaosSeed
		mod  func(*tcio.Config)
	}{
		// Probabilities are tuned to the two regimes each case must serve:
		// hot enough that the zero-retry run faults at least one rank, cool
		// enough that the default 8-retry budget never exhausts on any
		// single request in the control run (p^9 per request).
		//
		// Level-1 flush: buffered pieces ship to remote level-2 on realign
		// and Flush; the put is the only site armed.
		{"flush-level1-ship", faults.SiteWinPut, 0.3, 0, nil},
		// Direct ship: with level-1 disabled every WriteAt is its own
		// one-sided put epoch.
		{"direct-ship", faults.SiteWinPut, 0.3, 0,
			func(c *tcio.Config) { c.DisableLevel1 = true }},
		// Final drain: the only OST writes happen inside Close.
		{"final-drain", faults.SiteOSTWrite, 0.5, 0, nil},
		// Journal truncate: the session is clean until the control RPC that
		// retires the epoch log after the final drain settled.
		{"journal-truncate", faults.SiteWALTruncate, 0.6, 7,
			func(c *tcio.Config) { c.Journal = true }},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			seed := tc.seed
			if seed == 0 {
				seed = closeChaosSeed
			}
			zero := faults.NoRetry()
			errs, in, fs := closeChaosWrite(t, seed, tc.site, tc.prob, &zero, tc.mod)
			if in.TotalInjected() == 0 {
				t.Fatalf("seed %d injected no fault at %s; the case exercised nothing", seed, tc.site)
			}
			sawTyped := false
			for rank, err := range errs {
				if err == nil {
					continue
				}
				if errors.Is(err, mpi.ErrAborted) {
					// A peer's failure tore this rank out of a collective —
					// the abort is the peer's typed error propagating, not a
					// second fault to classify.
					continue
				}
				sawTyped = true
				if !errors.Is(err, faults.ErrExhaustedRetries) {
					t.Errorf("rank %d error is not typed ErrExhaustedRetries: %v", rank, err)
				}
				if !faults.IsTransient(err) {
					t.Errorf("rank %d error lost the injected-fault cause: %v", rank, err)
				}
			}
			if !sawTyped {
				t.Fatalf("seed %d: %s faulted (%s) yet every rank succeeded — silent partial file",
					seed, tc.site, in.CountsString())
			}

			// Seed-pinned determinism: the same seed re-injects the same
			// faults and fails the same ranks. (When two ranks fault in the
			// same collective epoch, which one surfaces its own typed error
			// and which sees the peer's abort first is a scheduling race, so
			// error strings are not part of the contract.)
			again, in2, _ := closeChaosWrite(t, seed, tc.site, tc.prob, &zero, tc.mod)
			for rank, err := range errs {
				if a, b := err != nil, again[rank] != nil; a != b {
					t.Errorf("rank %d outcome not reproducible: run 1 failed=%v, run 2 failed=%v (run 2: %v)",
						rank, a, b, again[rank])
				}
			}
			if a, b := in.CountsString(), in2.CountsString(); a != b {
				t.Errorf("injection counts not reproducible: %q vs %q", a, b)
			}

			if tc.name == "journal-truncate" {
				// The failed Close must have preserved the journal (a stale
				// journal replays byte-safely; a missing one over a torn
				// drain would not) — and recovery over the already-complete
				// data file must keep it byte-exact.
				preserved := false
				for rank := 0; rank < closeChaosProcs; rank++ {
					wn := tcio.WALFileName(closeChaosFile, rank)
					if fs.Exists(wn) && fs.Open(wn).Size() > 0 {
						preserved = true
					}
				}
				if !preserved {
					t.Fatal("failed Close left no journal behind")
				}
				cfg := closeChaosConfig(nil, tc.mod)
				if _, err := tcio.Recover(fs, closeChaosFile, cfg); err != nil {
					t.Fatalf("recovery over the preserved journal failed: %v", err)
				}
				verifyCloseChaosImage(t, fs, "after recovery")
			}

			// The control: the identical seed and fault rules succeed under
			// the default retry policy, and every byte lands.
			cerrs, cin, cfs := closeChaosWrite(t, seed, tc.site, tc.prob, nil, tc.mod)
			for rank, err := range cerrs {
				if err != nil {
					t.Fatalf("rank %d failed under the default retry policy: %v", rank, err)
				}
			}
			if cin.TotalInjected() == 0 {
				t.Fatal("control run injected nothing; it does not cover the kill point")
			}
			verifyCloseChaosImage(t, cfs, "control run")
		})
	}
}
