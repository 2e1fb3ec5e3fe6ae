package mpi

// Tests for the Rput-style nonblocking puts: PutSegmentsAsync handles and
// the Arrival observer the overlap pipelines use.

import (
	"errors"
	"testing"

	"github.com/tcio/tcio/internal/datatype"
)

func TestPutSegmentsAsyncComplete(t *testing.T) {
	_, err := Run(testCfg(2), func(c *Comm) error {
		win, err := c.WinCreate(make([]byte, 64))
		if err != nil {
			return err
		}
		if c.Rank() != 0 {
			return nil
		}
		if err := win.Lock(1, false); err != nil {
			return err
		}
		h, err := win.PutSegmentsAsync(1, []datatype.Segment{{Off: 8, Len: 4}}, []byte{1, 2, 3, 4})
		if err != nil {
			return err
		}
		// Arrival observes the in-flight transfer without advancing the
		// origin clock past it.
		pending := h.Arrival()
		if pending <= c.Now() {
			return errors.New("put arrival not after issue time")
		}
		h.Complete()
		if c.Now() < pending {
			return errors.New("Complete did not wait for the transfer")
		}
		// A second put moves the epoch's horizon; Unlock waits for it even
		// though its handle is dropped.
		h, err = win.PutSegmentsAsync(1, []datatype.Segment{{Off: 16, Len: 4}}, []byte{5, 6, 7, 8})
		if err != nil {
			return err
		}
		if err := win.Unlock(1); err != nil {
			return err
		}
		if c.Now() < h.Arrival() {
			return errors.New("Unlock did not retire the epoch's transfers")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
