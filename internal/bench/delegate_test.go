package bench

import "testing"

// smallDelegateOpts shrinks the sweep to test scale: 4 clients, 2 KiB
// files, 64 B requests.
func smallDelegateOpts() *delegateGeometry {
	return &delegateGeometry{
		segGeometry: segGeometry{Procs: 4, SegSize: 256, SegsPerRank: 2, Scale: 4},
		Servers:     []int{0, 1, 2},
		Files:       []int{1, 2},
		ReqSizes:    []int64{64, 256},
	}
}

func TestDelegateSweepSmall(t *testing.T) {
	opts := smallDelegateOpts()
	rep, err := Run(delegateSweep(opts), Options{})
	if err != nil {
		t.Fatalf("Delegate: %v", err)
	}
	// point is a cell's tabulated values, read through the JSON columns.
	type point struct{ WriteReqs, Staged, BatchedRuns, FSWrites int64 }
	byKey := map[delegatePoint]point{}
	for i, p := range rep.Entry().Rows {
		if p["result"] != "ok" {
			t.Errorf("point %+v: result %q", p, p["result"])
		}
		byKey[rep.Rows[i].Point.(delegatePoint)] = point{p["write_reqs"].(int64), p["staged_writes"].(int64),
			p["batched_runs"].(int64), p["fs_writes"].(int64)}
	}
	fileBytes := opts.fileBytes()
	for _, files := range opts.Files {
		for _, req := range opts.ReqSizes {
			reqs := fileBytes / req * int64(files)
			base := byKey[delegatePoint{0, files, req}]
			if base.WriteReqs != reqs {
				t.Errorf("tcio files=%d req=%d: %d write calls, want %d",
					files, req, base.WriteReqs, reqs)
			}
			if base.Staged != 0 || base.BatchedRuns != 0 {
				t.Errorf("tcio files=%d req=%d reported server counters %d/%d",
					files, req, base.Staged, base.BatchedRuns)
			}
			for _, servers := range opts.Servers[1:] {
				p := byKey[delegatePoint{servers, files, req}]
				// Requests never straddle a domain block here, so one
				// protocol request per write call, all staged.
				if p.WriteReqs != reqs || p.Staged != reqs {
					t.Errorf("srv=%d files=%d req=%d: %d reqs / %d staged, want %d",
						servers, files, req, p.WriteReqs, p.Staged, reqs)
				}
				// The whole point: the coalesced epoch drain reaches the
				// file system in far fewer, longer requests than tcio's
				// per-owner segment drains.
				if p.FSWrites >= base.FSWrites {
					t.Errorf("srv=%d files=%d req=%d: %d fs-writes, tcio %d",
						servers, files, req, p.FSWrites, base.FSWrites)
				}
				if p.BatchedRuns != p.FSWrites {
					t.Errorf("srv=%d files=%d req=%d: %d batched runs vs %d fs-writes",
						servers, files, req, p.BatchedRuns, p.FSWrites)
				}
			}
		}
	}
}

func TestDelegateValidate(t *testing.T) {
	opts := smallDelegateOpts()
	opts.ReqSizes = []int64{96} // 2048/ (96*4) does not divide
	if _, err := Run(delegateSweep(opts), Options{}); err == nil {
		t.Errorf("misaligned request size accepted")
	}
	opts = smallDelegateOpts()
	opts.Servers = []int{-1}
	if _, err := Run(delegateSweep(opts), Options{}); err == nil {
		t.Errorf("negative server count accepted")
	}
}
