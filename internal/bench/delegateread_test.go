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
		Collective:  []bool{false, true},
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
			t.Errorf("%s coll=%v: %s, hot pass %dns, cold %dns", p.Pattern, p.Collective, r.Result, p.HotNs, p.ColdNs)
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
		coll    bool
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
		byKey[key{p.Pattern, p.CacheBlocks, p.Collective}] = point{p, r.Client.ReadReqs, r.Servers.CacheHits, r.Servers.CacheMisses}
	}
	for _, pattern := range opts.Patterns {
		reqs := 2 * perPass[pattern] // two passes
		for _, coll := range opts.Collective {
			dis := byKey[key{pattern, 0, coll}]
			arm := byKey[key{pattern, 8, coll}]
			for _, p := range []point{dis, arm} {
				if p.ReadReqs != reqs {
					t.Errorf("%s coll=%v cache=%d: %d read reqs, want %d",
						pattern, coll, p.CacheBlocks, p.ReadReqs, reqs)
				}
			}
			// Disarmed: no cache counters, and the hot pass repeats the cold
			// pass's file system requests exactly.
			if dis.CacheHits != 0 || dis.CacheMisses != 0 {
				t.Errorf("%s coll=%v disarmed: cache counters %d/%d", pattern, coll, dis.CacheHits, dis.CacheMisses)
			}
			if dis.FSReadsHot != dis.FSReadsCold {
				t.Errorf("%s coll=%v disarmed: hot pass %d fs reads, cold %d",
					pattern, coll, dis.FSReadsHot, dis.FSReadsCold)
			}
			wantCold := perPass[pattern]
			if coll {
				// Collective epochs stage the merged union once per block.
				wantCold = blocks
			}
			if dis.FSReadsCold != wantCold {
				t.Errorf("%s coll=%v disarmed: cold pass %d fs reads, want %d",
					pattern, coll, dis.FSReadsCold, wantCold)
			}
			// Armed: the cold pass fills each block once, the hot pass never
			// reaches the file system, and every request or collective block
			// is a hit or a miss.
			if arm.FSReadsCold != blocks || arm.FSReadsHot != 0 {
				t.Errorf("%s coll=%v armed: fs reads %d/%d, want %d/0",
					pattern, coll, arm.FSReadsCold, arm.FSReadsHot, blocks)
			}
			// An independent miss is a line fill: it brings in its aligned
			// group of four blocks, so only one request per group misses. A
			// collective epoch stages block by block.
			wantMisses := (blocks + 3) / 4
			if coll {
				wantMisses = blocks
			}
			if arm.CacheMisses != wantMisses {
				t.Errorf("%s coll=%v armed: %d misses, want %d", pattern, coll, arm.CacheMisses, wantMisses)
			}
			served := reqs
			if coll {
				served = 2 * blocks // one staging per block per epoch
			}
			if arm.CacheHits+arm.CacheMisses != served {
				t.Errorf("%s coll=%v armed: hits+misses %d, want %d",
					pattern, coll, arm.CacheHits+arm.CacheMisses, served)
			}
			// The armed hot re-read must beat its cold pass.
			if arm.HotNs >= arm.ColdNs {
				t.Errorf("%s coll=%v armed: hot pass %dns not faster than cold %dns",
					pattern, coll, arm.HotNs, arm.ColdNs)
			}
		}
		// Collective reads collapse overlapping requests before the file
		// system: the shared pattern's per-request cold pass must cost at
		// least Clients times the collective cold pass.
		dis := byKey[key{PatternShared, 0, false}]
		col := byKey[key{PatternShared, 0, true}]
		if dis.FSReadsCold < int64(opts.Procs)*col.FSReadsCold {
			t.Errorf("shared: per-request cold pass %d fs reads, collective %d — overlap not collapsed",
				dis.FSReadsCold, col.FSReadsCold)
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
