package bench

import "testing"

// smallDelegateReadOpts shrinks the read sweep to test scale: 4 clients,
// 2 KiB file, 64 B requests, 1 KiB domain blocks (so 2 blocks).
func smallDelegateReadOpts() *delegateReadGeometry {
	return &delegateReadGeometry{
		segGeometry: segGeometry{Procs: 4, SegSize: 256, SegsPerRank: 2, Scale: 4},
		Servers:     1,
		CacheBlocks: []int{0, 8},
		Patterns:    []string{PatternPrivate, PatternShared},
		ReadQuantum: 128,
		ReqSize:     64,
	}
}

// delegateReadRows runs the read sweep and returns its rows.
func delegateReadRows(t *testing.T, opts *delegateReadGeometry) []Row {
	t.Helper()
	rep, err := Run(delegateReadSweep(opts), Options{})
	if err != nil {
		t.Fatalf("DelegateRead: %v", err)
	}
	return rep.Rows
}

// TestDelegateReadHotBeatsCold repeats TestDelegateReadSweepSmall's "armed
// hot re-read beats its cold pass" check on one client, whose request stream
// is totally ordered: with several clients a server takes requests in
// host-arrival order and the pass times move with the schedule, here both
// are exact.
func TestDelegateReadHotBeatsCold(t *testing.T) {
	opts := smallDelegateReadOpts()
	opts.Procs, opts.SegsPerRank = 1, 8 // the same 2 KiB file
	opts.CacheBlocks = []int{8}
	for _, r := range delegateReadRows(t, opts) {
		if p := r.Point.(delegateReadPoint); r.Result != "ok" || p.HotNs <= 0 || p.HotNs >= p.ColdNs {
			t.Errorf("%s: %s, hot pass %dns, cold %dns", p.Pattern, r.Result, p.HotNs, p.ColdNs)
		}
	}
}

func TestDelegateReadSweepSmall(t *testing.T) {
	opts := smallDelegateReadOpts()
	fileBytes := opts.fileBytes()
	pieces := fileBytes / opts.ReqSize       // 32
	blocks := fileBytes / (4 * opts.SegSize) // domain = 4 segments
	perPass := map[string]int64{PatternPrivate: pieces, PatternShared: pieces * int64(opts.Procs)}
	type key struct {
		pattern string
		cache   int
	}
	// point is a cell's axis setting, pass decomposition and counters.
	type point struct {
		delegateReadPoint
		ReadReqs, CacheHits, CacheMisses int64
	}
	byKey := map[key]point{}
	for _, r := range delegateReadRows(t, opts) {
		p := r.Point.(delegateReadPoint)
		if r.Result != "ok" {
			t.Fatalf("point %+v: result %q", p, r.Result)
		}
		byKey[key{p.Pattern, p.CacheBlocks}] = point{p, r.Client.ReadReqs, r.Servers.CacheHits, r.Servers.CacheMisses}
	}
	for _, pattern := range opts.Patterns {
		reqs := 2 * perPass[pattern] // two passes
		dis := byKey[key{pattern, 0}]
		arm := byKey[key{pattern, 8}]
		for _, p := range []point{dis, arm} {
			if p.ReadReqs != reqs {
				t.Errorf("%s cache=%d: %d read reqs, want %d", pattern, p.CacheBlocks, p.ReadReqs, reqs)
			}
		}
		// Disarmed: no cache counters, and every piece of either pass is one
		// file system request.
		if dis.CacheHits != 0 || dis.CacheMisses != 0 {
			t.Errorf("%s disarmed: cache counters %d/%d", pattern, dis.CacheHits, dis.CacheMisses)
		}
		if dis.FSReadsCold != perPass[pattern] || dis.FSReadsHot != perPass[pattern] {
			t.Errorf("%s disarmed: fs reads %d/%d, want %d each pass",
				pattern, dis.FSReadsCold, dis.FSReadsHot, perPass[pattern])
		}
		// Armed: the cold pass fills each block once, the hot pass never
		// reaches the file system, and every request is a hit or a miss.
		if arm.FSReadsCold != blocks || arm.FSReadsHot != 0 {
			t.Errorf("%s armed: fs reads %d/%d, want %d/0", pattern, arm.FSReadsCold, arm.FSReadsHot, blocks)
		}
		// A miss is a line fill: it brings in its aligned group of four
		// blocks, so only one request per group misses.
		if wantMisses := (blocks + 3) / 4; arm.CacheMisses != wantMisses {
			t.Errorf("%s armed: %d misses, want %d", pattern, arm.CacheMisses, wantMisses)
		}
		if arm.CacheHits+arm.CacheMisses != reqs {
			t.Errorf("%s armed: hits+misses %d, want %d", pattern, arm.CacheHits+arm.CacheMisses, reqs)
		}
		// The armed hot re-read must beat its cold pass.
		if arm.HotNs >= arm.ColdNs {
			t.Errorf("%s armed: hot pass %dns not faster than cold %dns", pattern, arm.HotNs, arm.ColdNs)
		}
	}
}

func TestDelegateReadValidate(t *testing.T) {
	opts := smallDelegateReadOpts()
	opts.Servers = 0
	if _, err := Run(delegateReadSweep(opts), Options{}); err == nil {
		t.Errorf("serverless read sweep accepted")
	}
	opts = smallDelegateReadOpts()
	opts.ReqSize = 96 // 2048 / (96*4) does not divide
	if _, err := Run(delegateReadSweep(opts), Options{}); err == nil {
		t.Errorf("misaligned request size accepted")
	}
	opts = smallDelegateReadOpts()
	opts.Patterns = []string{"zigzag"}
	if _, err := Run(delegateReadSweep(opts), Options{}); err == nil {
		t.Errorf("unknown pattern accepted")
	}
}
