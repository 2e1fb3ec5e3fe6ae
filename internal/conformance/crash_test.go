package conformance

import (
	"strings"
	"testing"
)

// TestCrashClassRecoversAcrossSeeds is the crash-conformance acceptance
// sweep: 24 class-7 seeds, each replayed at every generated kill instant
// and required to recover byte-exactly against the committed-prefix model.
func TestCrashClassRecoversAcrossSeeds(t *testing.T) {
	const n = 24
	for k := 0; k < n; k++ {
		seed := int64(7 + 8*k) // every 8th seed lands in class 7
		p := Generate(seed)
		if p.Knobs.CrashKills == 0 || !p.Knobs.Journal {
			t.Fatalf("seed %d: expected class-7 knobs, got %+v", seed, p.Knobs)
		}
		out := Check(p)
		for _, d := range out.Divergences {
			t.Errorf("seed %d: %s", seed, d)
		}
		if !strings.Contains(out.Summary, " crash[") {
			t.Errorf("seed %d summary lacks the crash block: %s", seed, out.Summary)
		}
	}
}

// TestDecodeWALIndexTornAndCorrupt pins the checker's own journal decoder
// against the format rules: torn tails stop cleanly, structural damage is
// an error — independent of package wal's decoder, which it cross-checks.
func TestDecodeWALIndexTornAndCorrupt(t *testing.T) {
	p := Generate(7)
	cr := runCrash(p)
	if cr.err != "" {
		t.Fatalf("crash run failed: %s", cr.err)
	}
	var img []byte
	for _, w := range cr.walFull {
		if len(w) > 0 {
			img = w
			break
		}
	}
	if img == nil {
		t.Fatal("no journal image produced")
	}
	marks, consumed, err := decodeWALIndex(img)
	if err != nil || consumed != int64(len(img)) || len(marks) == 0 {
		t.Fatalf("full image: marks=%d consumed=%d/%d err=%v", len(marks), consumed, len(img), err)
	}
	for _, mk := range marks {
		if !mk.sealed {
			t.Fatalf("epoch %d unsealed in a clean journal", mk.seq)
		}
	}
	// Torn anywhere: never an error, sealed epochs only shrink.
	for cut := 0; cut < len(img); cut++ {
		tm, tc, err := decodeWALIndex(img[:cut])
		if err != nil {
			t.Fatalf("cut at %d: unexpected error %v", cut, err)
		}
		if tc > int64(cut) {
			t.Fatalf("cut at %d: consumed %d past the cut", cut, tc)
		}
		if len(tm) > len(marks) {
			t.Fatalf("cut at %d: more epochs than the full image", cut)
		}
	}
	// Flip one payload byte of the first record: complete-but-wrong is an
	// error, not a tear.
	bad := append([]byte(nil), img...)
	bad[8] ^= 0xFF
	if _, _, err := decodeWALIndex(bad); err == nil {
		t.Fatal("corrupted first record decoded cleanly")
	}
}
