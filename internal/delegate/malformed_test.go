package delegate

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"github.com/tcio/tcio/internal/cluster"
	"github.com/tcio/tcio/internal/mpi"
	"github.com/tcio/tcio/internal/tcio"
)

// The malformed-request rig: two clients and two servers over 256-byte domain
// blocks, so server 0 owns the even blocks. Requests are hand-built with
// Tier.request, as no File method would send them.
const rigDomain, rigBlocks = 256, 8

// rigConfig is the rig's tier.
func rigConfig() Config {
	return Config{
		ServerRanks: 2,
		TCIO:        tcio.Config{SegmentSize: rigDomain / 4, NumSegments: 8},
	}
}

// rigDeadline bounds one rig run, which takes milliseconds: a server that
// never answers fails the test instead of hanging it.
const rigDeadline = 20 * time.Second

// rigRun runs body on each client of the rig's 4-rank world.
func rigRun(cfg Config, body func(tr *Tier) error) error {
	m := cluster.Lonestar()
	m.CoresPerNode = 4
	// Room for the result: a run the deadline gave up on can still finish.
	done := make(chan error, 1)
	go func() {
		_, err := mpi.Run(mpi.Config{Procs: 4, Machine: m}, func(c *mpi.Comm) error {
			return Run(c, cfg, body)
		})
		done <- err
	}()
	select {
	case err := <-done:
		return err
	case <-time.After(rigDeadline):
		return fmt.Errorf("rig: no result within %v", rigDeadline)
	}
}

// rigRead writes the rig's file — rigBlocks blocks of expectByte(0, ·), dealt
// to the clients — opens it for reading, runs body with the read handle and
// closes it.
func rigRead(cfg Config, body func(tr *Tier, r *File) error) error {
	return rigRun(cfg, func(tr *Tier) error {
		w, err := tr.Open("bad", tcio.WriteMode)
		if err != nil {
			return err
		}
		buf := make([]byte, rigDomain)
		for blk := int64(tr.ClientIndex()); blk < rigBlocks; blk += 2 {
			for i := range buf {
				buf[i] = expectByte(0, blk*rigDomain+int64(i))
			}
			if err := w.WriteAt(blk*rigDomain, buf); err != nil {
				return err
			}
		}
		if err := w.Close(); err != nil {
			return err
		}
		r, err := tr.Open("bad", tcio.ReadMode)
		if err != nil {
			return err
		}
		if err := body(tr, r); err != nil {
			return err
		}
		return r.Close()
	})
}

// readAll reads the whole rig file through r and checks every byte.
func readAll(tr *Tier, r *File) error {
	img := make([]byte, rigBlocks*rigDomain)
	if err := r.ReadAt(0, img); err != nil {
		return err
	}
	for off, got := range img {
		if want := expectByte(0, int64(off)); got != want {
			return fmt.Errorf("client %d byte %d: got %d want %d", tr.ClientIndex(), off, got, want)
		}
	}
	return nil
}

// badRun is one request geometry the rig's server 0 must turn away.
type badRun struct {
	name   string
	off, n int64
}

// malformedRuns are OpWrite and OpRead geometries, as sent to server 0,
// that it must turn away before it indexes with them.
var malformedRuns = []badRun{
	{"negative offset", -5, 8},
	{"empty", 2 * rigDomain, 0},
	{"crosses its block", rigDomain - 6, 16},
	{"another server's block", rigDomain, 8},
}

// TestMalformedReadGetsErrorReply: an OpRead's offset and length are bytes
// off the wire, and the server used to slice its resident block with them —
// a negative offset panicked the server rank, a run past its block read past
// the buffer, another server's block was served. Each bad read must now get
// an error reply naming the read, and a clean read afterwards shows the
// server still standing, whether server 0 holds none of its blocks when the
// bad read arrives (cache=0: it is client 0's first read, and client 1 reads
// nothing) or all four (cache=4: client 0 has read the whole file, so the
// bad read lands beside resident blocks), and ReadQuantum set or not. The
// server ignores ReadQuantum, but the benchmark still sets it; a server that
// queued reads by quantum used to add it to a deficit until the oversized
// read fit, about 2^56 rounds, so it never answered.
func TestMalformedReadGetsErrorReply(t *testing.T) {
	reads := append(slices.Clip(malformedRuns), badRun{"oversized", 0, 1 << 62})
	for _, quantum := range []int64{0, 64} {
		for _, held := range []int{0, rigBlocks / 2} {
			for _, bad := range reads {
				name := fmt.Sprintf("cache=%d/%s", held, bad.name)
				if quantum > 0 {
					name = fmt.Sprintf("quantum=%d/%s", quantum, name)
				}
				t.Run(name, func(t *testing.T) {
					cfg := rigConfig()
					cfg.ReadQuantum = quantum
					err := rigRead(cfg, func(tr *Tier, r *File) error {
						if tr.ClientIndex() != 0 {
							return nil
						}
						if held > 0 {
							if err := readAll(tr, r); err != nil {
								return err
							}
						}
						if err := tr.request(0, &mpi.RPCRequest{Op: mpi.OpRead, Handle: r.handle, Off: bad.off, Len: bad.n}); err != nil {
							return err
						}
						rep, err := r.reply(0, "read")
						if err == nil {
							rep.Release()
						}
						if err == nil || !strings.Contains(err.Error(), "delegate: read run") {
							return fmt.Errorf("server 0 answered read [%d,+%d) with %v, want a read-run error", bad.off, bad.n, err)
						}
						return readAll(tr, r)
					})
					if err != nil {
						t.Fatal(err)
					}
				})
			}
		}
	}
}

// TestMalformedWriteFailsNamingIt: an OpWrite's geometry is off the wire as
// well, and closeEpoch used to copy the record into its block's staging
// buffer at whatever offset it named — a negative one panicked the server,
// and mpi.Run reported only a bystander's "world aborted"; one past its
// block was cut short while its run kept the full length. The server must
// now fail the request before staging it, with an error that names the op,
// the sender and the run, and never panic.
func TestMalformedWriteFailsNamingIt(t *testing.T) {
	for _, bad := range malformedRuns {
		t.Run(bad.name, func(t *testing.T) {
			err := rigRun(rigConfig(), func(tr *Tier) error {
				w, err := tr.Open("bad", tcio.WriteMode)
				if err != nil {
					return err
				}
				if tr.ClientIndex() == 0 {
					if err := tr.request(0, &mpi.RPCRequest{
						Op: mpi.OpWrite, Handle: w.handle, Off: bad.off, Len: bad.n, Data: make([]byte, bad.n),
					}); err != nil {
						return err
					}
				}
				return w.Close()
			})
			if err == nil || !strings.Contains(err.Error(), "write from rank") ||
				!strings.Contains(err.Error(), fmt.Sprintf("delegate: write run [%d,+%d)", bad.off, bad.n)) ||
				strings.Contains(err.Error(), "panicked") {
				t.Fatalf("write [%d,+%d): err = %v, want the server's error naming the write and its run", bad.off, bad.n, err)
			}
		})
	}
}

// TestNegativeOffsetRejectedLikeTCIO: a negative offset is the caller's
// error, in tcio.Open's own words.
// A delegated WriteAt used to ship it, and the owning server panicked.
func TestNegativeOffsetRejectedLikeTCIO(t *testing.T) {
	type file interface {
		WriteAt(int64, []byte) error
		ReadAt(int64, []byte) error
		Close() error
	}
	// rejections writes, then reads, at -5 through open and returns the two
	// errors' text.
	rejections := func(open func(string, tcio.Mode) (file, error)) (got [2]string, err error) {
		for i, mode := range []tcio.Mode{tcio.WriteMode, tcio.ReadMode} {
			f, err := open("neg", mode)
			if err != nil {
				return got, err
			}
			if mode == tcio.WriteMode {
				err = f.WriteAt(-5, make([]byte, 8))
			} else {
				err = f.ReadAt(-5, make([]byte, 8))
			}
			if err == nil {
				return got, fmt.Errorf("%v at offset -5 accepted", mode)
			}
			got[i] = err.Error()
			if err := f.Close(); err != nil {
				return got, err
			}
		}
		return got, nil
	}
	var want [2]string
	_, err := mpi.Run(mpi.Config{Procs: 2, Machine: cluster.Lonestar()}, func(c *mpi.Comm) error {
		got, err := rejections(func(name string, mode tcio.Mode) (file, error) {
			return tcio.Open(c, name, mode, rigConfig().TCIO)
		})
		if c.Rank() == 0 {
			want = got
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	err = rigRun(rigConfig(), func(tr *Tier) error {
		got, err := rejections(func(name string, mode tcio.Mode) (file, error) { return tr.Open(name, mode) })
		if err == nil && got != want {
			err = fmt.Errorf("the tier rejects with %q, tcio with %q", got, want)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
}
