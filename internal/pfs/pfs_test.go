package pfs

import (
	"bytes"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"github.com/tcio/tcio/internal/faults"
	"github.com/tcio/tcio/internal/simtime"
)

func testConfig() Config {
	cfg := DefaultConfig()
	cfg.StripeSize = 1 << 10 // small stripes so tests cross boundaries
	return cfg
}

func TestDefaultConfigMatchesPaper(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.OSTCount != 30 {
		t.Fatalf("OSTCount = %d, want 30", cfg.OSTCount)
	}
	if cfg.StripeSize != 1<<20 {
		t.Fatalf("StripeSize = %d, want 1 MiB", cfg.StripeSize)
	}
	if cfg.StripeCount != 1 {
		t.Fatalf("StripeCount = %d, want 1 (paper default: single OST per file)", cfg.StripeCount)
	}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestConfigValidate(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.OSTCount = 0 },
		func(c *Config) { c.StripeSize = 0 },
		func(c *Config) { c.StripeCount = 0 },
		func(c *Config) { c.StripeCount = c.OSTCount + 1 },
		func(c *Config) { c.ByteScale = 0 },
	}
	for i, mut := range bad {
		cfg := DefaultConfig()
		mut(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	fs := New(testConfig())
	f := fs.Open("data")
	payload := []byte("hello, lustre world")
	if _, err := f.WriteAt(0, 100, payload, 0); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(payload))
	if _, err := f.ReadAt(0, 100, got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("read %q, want %q", got, payload)
	}
	if f.Size() != 100+int64(len(payload)) {
		t.Fatalf("Size = %d", f.Size())
	}
}

func TestSparseReadsZeroFill(t *testing.T) {
	fs := New(testConfig())
	f := fs.Open("sparse")
	f.WriteAt(0, 10, []byte{1, 2, 3}, 0)
	got := make([]byte, 6)
	f.ReadAt(0, 8, got, 0)
	want := []byte{0, 0, 1, 2, 3, 0}
	if !bytes.Equal(got, want) {
		t.Fatalf("read %v, want %v", got, want)
	}
}

func TestWriteAcrossPageBoundary(t *testing.T) {
	fs := New(testConfig())
	f := fs.Open("pages")
	payload := make([]byte, 3*fs.page)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	off := fs.page - 100
	f.WriteAt(0, off, payload, 0)
	got := make([]byte, len(payload))
	f.ReadAt(0, off, got, 0)
	if !bytes.Equal(got, payload) {
		t.Fatal("page-spanning write did not round-trip")
	}
}

func TestSharedOpenSameObject(t *testing.T) {
	fs := New(testConfig())
	a := fs.Open("shared")
	b := fs.Open("shared")
	if a != b {
		t.Fatal("Open returned different objects for the same name")
	}
	a.WriteAt(0, 0, []byte{42}, 0)
	got := make([]byte, 1)
	b.ReadAt(1, 0, got, 0)
	if got[0] != 42 {
		t.Fatal("data written via first handle not visible via second")
	}
}

func TestRequestOverheadCharged(t *testing.T) {
	cfg := testConfig()
	fs := New(cfg)
	f := fs.Open("t")
	end, _ := f.WriteAt(0, 0, []byte{1}, 0)
	if end < simtime.Time(cfg.RequestOverhead) {
		t.Fatalf("1-byte write completed at %v, cheaper than the RPC overhead %v", end, cfg.RequestOverhead)
	}
}

func TestAggregatedWriteCheaperThanPieces(t *testing.T) {
	cfg := testConfig()
	const total = 64 << 10
	// One big request.
	fsA := New(cfg)
	fa := fsA.Open("a")
	endA, _ := fa.WriteAt(0, 0, make([]byte, total), 0)

	// Same bytes in 256-byte pieces, issued back to back by one client.
	fsB := New(cfg)
	fb := fsB.Open("b")
	var now simtime.Time
	for off := int64(0); off < total; off += 256 {
		now, _ = fb.WriteAt(0, off, make([]byte, 256), now)
	}
	if now < 10*endA {
		t.Fatalf("per-piece writes (%v) should be at least 10x the aggregated write (%v)", now, endA)
	}
	if !bytes.Equal(fa.Snapshot(), fb.Snapshot()) {
		t.Fatal("contents differ")
	}
}

func TestLockPingPong(t *testing.T) {
	cfg := testConfig()
	fs := New(cfg)
	f := fs.Open("locks")
	// Two clients alternately writing into the same stripe.
	var now simtime.Time
	for i := 0; i < 10; i++ {
		now, _ = f.WriteAt(i%2, int64(i), []byte{byte(i)}, now)
	}
	if got := fs.Stats().LockConflicts; got != 9 {
		t.Fatalf("LockConflicts = %d, want 9 (every ownership change after the first)", got)
	}

	// Same pattern from a single client: no conflicts.
	fs2 := New(cfg)
	f2 := fs2.Open("locks2")
	now = 0
	for i := 0; i < 10; i++ {
		now, _ = f2.WriteAt(0, int64(i), []byte{byte(i)}, now)
	}
	if got := fs2.Stats().LockConflicts; got != 0 {
		t.Fatalf("single client LockConflicts = %d, want 0", got)
	}
}

func TestAlignedWritersAvoidConflicts(t *testing.T) {
	cfg := testConfig()
	fs := New(cfg)
	f := fs.Open("aligned")
	// Each client owns distinct stripes: no revocations.
	var now simtime.Time
	for c := 0; c < 4; c++ {
		off := int64(c) * cfg.StripeSize
		now, _ = f.WriteAt(c, off, make([]byte, cfg.StripeSize), now)
	}
	if got := fs.Stats().LockConflicts; got != 0 {
		t.Fatalf("stripe-aligned writers conflicted %d times", got)
	}
}

func TestReadsDoNotConflict(t *testing.T) {
	fs := New(testConfig())
	f := fs.Open("reads")
	f.WriteAt(0, 0, make([]byte, 100), 0)
	for c := 0; c < 5; c++ {
		f.ReadAt(c, 0, make([]byte, 100), 0)
	}
	if got := fs.Stats().LockConflicts; got != 0 {
		t.Fatalf("reads caused %d lock conflicts", got)
	}
}

func TestByteScaleInflatesCost(t *testing.T) {
	cfg := testConfig()
	fs1 := New(cfg)
	end1, _ := fs1.Open("x").WriteAt(0, 0, make([]byte, 1<<10), 0)

	cfg.ByteScale = 1 << 20
	fs2 := New(cfg)
	end2, _ := fs2.Open("x").WriteAt(0, 0, make([]byte, 1<<10), 0)
	if end2 <= end1 {
		t.Fatalf("scaled write (%v) should cost more than unscaled (%v)", end2, end1)
	}
}

func TestStripingSpreadsLoad(t *testing.T) {
	cfg := testConfig()
	cfg.ByteScale = 1 << 20 // make bandwidth, not RPC overhead, dominate
	cfg.StripeCount = 4
	fs := New(cfg)
	f := fs.Open("striped")
	// A request spanning 4 stripes is served by 4 OSTs in parallel, so it
	// finishes faster than on a single OST.
	data := make([]byte, 4*cfg.StripeSize)
	endStriped, _ := f.WriteAt(0, 0, data, 0)

	cfg1 := cfg
	cfg1.StripeCount = 1
	fsB := New(cfg1)
	endSingle, _ := fsB.Open("single").WriteAt(0, 0, data, 0)
	if endStriped >= endSingle {
		t.Fatalf("striped write %v not faster than single-OST %v", endStriped, endSingle)
	}
}

func TestNegativeOffsetRejected(t *testing.T) {
	fs := New(testConfig())
	f := fs.Open("neg")
	if _, err := f.WriteAt(0, -1, []byte{1}, 0); err == nil {
		t.Fatal("negative write offset accepted")
	}
	if _, err := f.ReadAt(0, -1, make([]byte, 1), 0); err == nil {
		t.Fatal("negative read offset accepted")
	}
}

func TestStatsAndReset(t *testing.T) {
	fs := New(testConfig())
	f := fs.Open("s")
	f.WriteAt(0, 0, make([]byte, 10), 0)
	f.ReadAt(0, 0, make([]byte, 4), 0)
	st := fs.Stats()
	if st.Writes != 1 || st.Reads != 1 || st.BytesWritten != 10 || st.BytesRead != 4 {
		t.Fatalf("stats = %+v", st)
	}
	fs.Reset()
	if st := fs.Stats(); st != (Stats{}) {
		t.Fatalf("stats after reset = %+v", st)
	}
	// Contents survive a reset.
	got := make([]byte, 10)
	f.ReadAt(0, 0, got, 0)
	if got[0] != 0 && f.Size() != 10 {
		t.Fatal("contents lost on reset")
	}
}

func TestTruncate(t *testing.T) {
	fs := New(testConfig())
	f := fs.Open("t")
	f.WriteAt(0, 0, []byte{9, 9}, 0)
	if _, _, err := f.TruncateAtRetry(0, 0, faults.NoRetry()); err != nil {
		t.Fatal(err)
	}
	if f.Size() != 0 {
		t.Fatal("size after truncate")
	}
	got := make([]byte, 2)
	f.ReadAt(0, 0, got, 0)
	if got[0] != 0 || got[1] != 0 {
		t.Fatal("contents survive truncate")
	}
}

func TestConcurrentDisjointWriters(t *testing.T) {
	fs := New(testConfig())
	f := fs.Open("conc")
	const n = 16
	const chunk = 1 << 10
	var wg sync.WaitGroup
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			data := bytes.Repeat([]byte{byte(c + 1)}, chunk)
			if _, err := f.WriteAt(c, int64(c)*chunk, data, 0); err != nil {
				t.Errorf("writer %d: %v", c, err)
			}
		}(c)
	}
	wg.Wait()
	snap := f.Snapshot()
	if len(snap) != n*chunk {
		t.Fatalf("file size %d, want %d", len(snap), n*chunk)
	}
	for c := 0; c < n; c++ {
		for i := 0; i < chunk; i++ {
			if snap[c*chunk+i] != byte(c+1) {
				t.Fatalf("byte %d of chunk %d = %d", i, c, snap[c*chunk+i])
			}
		}
	}
}

// Property: random disjoint writes then a full read reproduce exactly the
// reference contents maintained in a plain byte slice.
func TestRandomWritesMatchReference(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		fs := New(testConfig())
		file := fs.Open("prop")
		const size = 10 << 10
		ref := make([]byte, size)
		for i := 0; i < 50; i++ {
			off := int64(rng.Intn(size - 1))
			n := rng.Intn(int(int64(size)-off)) + 1
			data := make([]byte, n)
			rng.Read(data)
			copy(ref[off:], data)
			if _, err := file.WriteAt(rng.Intn(4), off, data, 0); err != nil {
				return false
			}
		}
		got := make([]byte, size)
		file.ReadAt(0, 0, got, 0)
		return bytes.Equal(got, ref)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
