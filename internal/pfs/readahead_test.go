package pfs

import (
	"testing"

	"github.com/tcio/tcio/internal/simtime"
)

func raConfig() Config {
	cfg := DefaultConfig()
	cfg.StripeSize = 1 << 10
	cfg.ReadAhead = 1 << 10
	return cfg
}

func TestReadAheadSequentialHits(t *testing.T) {
	fs := New(raConfig())
	f := fs.Open("seq")
	f.WriteAt(0, 0, make([]byte, 4096), 0)

	// First read misses and prefetches; the following reads inside the
	// window hit the client cache.
	var now simtime.Time
	now, _ = f.ReadAt(0, 0, make([]byte, 64), now)
	missEnd := now
	for i := 1; i < 8; i++ {
		prev := now
		now, _ = f.ReadAt(0, int64(i*64), make([]byte, 64), now)
		if got := now.Sub(prev); got != raConfig().CacheHit {
			t.Fatalf("read %d cost %v, want cache hit %v", i, got, raConfig().CacheHit)
		}
	}
	if missEnd <= simtime.Time(raConfig().CacheHit) {
		t.Fatalf("first read was suspiciously cheap: %v", missEnd)
	}
	if got := fs.Stats().CacheHits; got != 7 {
		t.Fatalf("CacheHits = %d, want 7", got)
	}
}

func TestReadAheadMissOutsideWindow(t *testing.T) {
	fs := New(raConfig())
	f := fs.Open("strided")
	f.WriteAt(0, 0, make([]byte, 1<<20), 0)
	// Strided reads 4 KiB apart never land in the 1 KiB window.
	var now simtime.Time
	for i := 0; i < 8; i++ {
		now, _ = f.ReadAt(0, int64(i*4096), make([]byte, 64), now)
	}
	if got := fs.Stats().CacheHits; got != 0 {
		t.Fatalf("strided reads hit cache %d times", got)
	}
}

func TestReadAheadPerClient(t *testing.T) {
	fs := New(raConfig())
	f := fs.Open("percli")
	f.WriteAt(0, 0, make([]byte, 4096), 0)
	// Client 0 warms its window; client 1's first read must still miss.
	f.ReadAt(0, 0, make([]byte, 64), 0)
	before := fs.Stats().CacheHits
	f.ReadAt(1, 64, make([]byte, 64), 0)
	if got := fs.Stats().CacheHits; got != before {
		t.Fatalf("client 1 hit client 0's window")
	}
	// But client 0's next read hits.
	f.ReadAt(0, 64, make([]byte, 64), 0)
	if got := fs.Stats().CacheHits; got != before+1 {
		t.Fatalf("client 0 did not hit its own window")
	}
}

func TestReadAheadDisabled(t *testing.T) {
	cfg := raConfig()
	cfg.ReadAhead = 0
	fs := New(cfg)
	f := fs.Open("off")
	f.WriteAt(0, 0, make([]byte, 4096), 0)
	f.ReadAt(0, 0, make([]byte, 64), 0)
	f.ReadAt(0, 64, make([]byte, 64), 0)
	if got := fs.Stats().CacheHits; got != 0 {
		t.Fatalf("disabled readahead produced %d hits", got)
	}
}

func TestReadAheadContentsStillCorrect(t *testing.T) {
	// Cache hits are a cost model; contents always come from the store,
	// including bytes written after the window was established.
	fs := New(raConfig())
	f := fs.Open("coherent")
	f.WriteAt(0, 0, []byte{1, 1, 1, 1}, 0)
	f.ReadAt(0, 0, make([]byte, 2), 0) // establish window
	f.WriteAt(1, 2, []byte{9}, 0)      // another client overwrites
	got := make([]byte, 4)
	f.ReadAt(0, 0, got, 0) // hit, but must see the new byte
	if got[2] != 9 {
		t.Fatalf("cache hit served stale data: %v", got)
	}
}
