package delegate

import (
	"fmt"
	"strings"
	"testing"

	"github.com/tcio/tcio/internal/mpi"
	"github.com/tcio/tcio/internal/simtime"
	"github.com/tcio/tcio/internal/tcio"
)

// readEpochTwin is what one client and one server show after a collective
// read run: the client's final clock and the server's read-side counters.
type readEpochTwin struct {
	clock                                     simtime.Time
	fsReads, hits, misses, evictions, rEpochs int64
}

// TestReadEpochTwin is the exact twin of the collective read epoch: one
// client, one server, a six-block file read whole in two Fetch rounds. One
// client means one request stream, so every instant is a function of the
// program. Armed at four blocks, round one fills all six and evicts two, and
// round two misses the evicted pair and hits the rest; disarmed, every epoch
// fetches all six. The counters were read on the tree before the epoch and
// the block fetch were merged and repeat under -count=50 -cpu 1,2,8. The
// clock read 4 281 356 ns while the server waited for each batch and then
// paid the reply's 400 ns send; a reply now departs at its blocks' arrival,
// its send paid while they arrive, so each of the two epochs that fetch
// lands the client 400 ns earlier (the closing epoch is empty).
func TestReadEpochTwin(t *testing.T) {
	for _, tc := range []struct {
		cacheBlks int
		want      readEpochTwin
	}{
		{4, readEpochTwin{clock: 4281356 - 2*400, fsReads: 8, hits: 4, misses: 8, evictions: 4, rEpochs: 3}},
		{0, readEpochTwin{clock: 4281356 - 2*400, fsReads: 12, rEpochs: 3}},
	} {
		t.Run(fmt.Sprintf("cache=%d", tc.cacheBlks), func(t *testing.T) {
			o := readWorkload(t, readRunOpts{procs: 2, servers: 1, fileBlocks: 6, rounds: 2, collective: true, cacheBlks: tc.cacheBlks})
			s := o.servers[0]
			got := readEpochTwin{
				clock:   o.rep.RankTimes[1-s.Rank],
				fsReads: s.FSReads, hits: s.CacheHits, misses: s.CacheMisses, evictions: s.CacheEvictions, rEpochs: s.ReadEpochs,
			}
			if got != tc.want {
				t.Fatalf("got %+v, want %+v", got, tc.want)
			}
		})
	}
}

// TestEpochOpMatchesHandleMode: a flush marker closes a write epoch and a read
// intent a read epoch. Either one on the other kind of handle is wire input
// no File method sends, and the server must fail naming the op instead of
// counting it toward the handle's quorum.
func TestEpochOpMatchesHandleMode(t *testing.T) {
	for _, tc := range []struct {
		mode tcio.Mode
		op   mpi.RPCOp
	}{
		{tcio.ReadMode, mpi.OpFlush},
		{tcio.WriteMode, mpi.OpReadIntent},
	} {
		t.Run(tc.op.String(), func(t *testing.T) {
			err := rigRun(rigConfig(4, true), func(tr *Tier) error {
				f, err := tr.Open("mode", tc.mode)
				if err != nil {
					return err
				}
				if tr.ClientIndex() == 0 {
					if err := tr.request(0, &mpi.RPCRequest{Op: tc.op, Handle: f.handle}); err != nil {
						return err
					}
				}
				return f.Close()
			})
			want := fmt.Sprintf("delegate: %s on %s handle", tc.op, tc.mode)
			if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("%s from rank", tc.op)) || !strings.Contains(err.Error(), want) {
				t.Fatalf("%s on a %s handle: err = %v, want the server's error naming it (%q)", tc.op, tc.mode, err, want)
			}
		})
	}
}
