package delegate

import (
	"fmt"
	"strings"
	"testing"

	"github.com/tcio/tcio/internal/mpi"
	"github.com/tcio/tcio/internal/tcio"
)

// TestEpochOpMatchesHandleMode: a flush marker closes a write epoch. One on a
// read handle is wire input no File method sends, and the server must fail
// naming the op instead of counting it toward the handle's quorum.
func TestEpochOpMatchesHandleMode(t *testing.T) {
	for _, tc := range []struct {
		mode tcio.Mode
		op   mpi.RPCOp
	}{
		{tcio.ReadMode, mpi.OpFlush},
	} {
		t.Run(tc.op.String(), func(t *testing.T) {
			err := rigRun(rigConfig(), func(tr *Tier) error {
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
