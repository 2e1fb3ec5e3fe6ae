package mpiio

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"time"

	"github.com/tcio/tcio/internal/datatype"
	"github.com/tcio/tcio/internal/extent"
	"github.com/tcio/tcio/internal/mpi"
)

// refEncodeRuns is the allocating per-message encoder pack replaced: count,
// run records, payload.
func refEncodeRuns(runs []datatype.Segment, payload []byte) []byte {
	msg := make([]byte, 4+16*len(runs)+len(payload))
	binary.LittleEndian.PutUint32(msg, uint32(len(runs)))
	for i, r := range runs {
		off := 4 + i*16
		binary.LittleEndian.PutUint64(msg[off:], uint64(r.Off))
		binary.LittleEndian.PutUint64(msg[off+8:], uint64(r.Len))
	}
	copy(msg[4+16*len(runs):], payload)
	return msg
}

// refExchangeMessages is the per-aggregator exchange build pack replaced,
// kept as its oracle: split the runs into one list per aggregator, gather each
// aggregator's payload by appending piece by piece, and encode one message
// per aggregator. It returns the message for every destination rank.
func refExchangeMessages(as aggSet, runs []datatype.Segment, data []byte) [][]byte {
	perAgg := make([][]datatype.Segment, as.part.N)
	payloadFor := make([][]byte, as.part.N)
	consumed := int64(0)
	for _, r := range runs {
		for r.Len > 0 {
			k, end := as.part.Clip(r.Off, r.End())
			n := end - r.Off
			perAgg[k] = append(perAgg[k], datatype.Segment{Off: r.Off, Len: n})
			if data != nil {
				payloadFor[k] = append(payloadFor[k], data[consumed:consumed+n]...)
			}
			consumed += n
			r.Off += n
			r.Len -= n
		}
	}
	send := make([][]byte, as.part.N)
	for k := range send {
		send[k] = refEncodeRuns(perAgg[k], payloadFor[k])
	}
	return send
}

// randomFiletype draws a filetype from every datatype constructor.
func randomFiletype(rng *rand.Rand) (datatype.Type, error) {
	base := []datatype.Type{datatype.Byte, datatype.Int, datatype.Double}[rng.Intn(3)]
	switch rng.Intn(7) {
	case 0:
		return datatype.Contiguous(1+rng.Intn(8), base)
	case 1:
		blocklen := 1 + rng.Intn(3)
		return datatype.Vector(1+rng.Intn(12), blocklen, blocklen+rng.Intn(5), base)
	case 2, 3: // Indexed / Hindexed: ascending blocks with random gaps
		n := 1 + rng.Intn(8)
		lens, displs := make([]int, n), make([]int, n)
		at := rng.Intn(4)
		for i := range lens {
			lens[i] = 1 + rng.Intn(4)
			displs[i] = at
			at += lens[i] + rng.Intn(6)
		}
		if rng.Intn(2) == 0 {
			return datatype.Indexed(lens, displs, base)
		}
		hl, hd := make([]int64, n), make([]int64, n)
		for i := range hl {
			hl[i], hd[i] = int64(lens[i]), int64(displs[i])
		}
		return datatype.Hindexed(hl, hd)
	case 4:
		return datatype.Struct([]int{1, 1 + rng.Intn(2)}, []int64{int64(rng.Intn(4)), int64(8 + rng.Intn(8))},
			[]datatype.Type{datatype.Int, datatype.Double})
	case 5:
		v, err := datatype.Vector(2+rng.Intn(6), 1, 2+rng.Intn(4), base)
		if err != nil {
			return nil, err
		}
		// Padded, exact or shrunk below the span (instances interleave).
		return datatype.Resized(v, v.Extent()+int64(rng.Intn(3)-1)*base.Extent())
	default:
		sizes := []int{2 + rng.Intn(4), 2 + rng.Intn(4)}
		sub := []int{1 + rng.Intn(sizes[0]), 1 + rng.Intn(sizes[1])}
		start := []int{rng.Intn(sizes[0] - sub[0] + 1), rng.Intn(sizes[1] - sub[1] + 1)}
		return datatype.Subarray(sizes, sub, start, base)
	}
}

// TestFlatPlanMatchesPerAggregatorSplit compares, byte for byte and
// destination by destination, the send buffer pack lays out with the
// messages the per-aggregator build produced: every datatype constructor,
// random request windows, every rank aggregating, and aggregate domains
// that cut runs, leave a rank's domain empty and leave holes. The handle is
// reused, so the scratch lists carry state from case to case as they do in
// a run.
func TestFlatPlanMatchesPerAggregatorSplit(t *testing.T) {
	const cases = 2400
	cut, empty, holes := 0, 0, 0
	for _, ranks := range []int{1, 3, 4, 8} {
		run(t, ranks, func(c *mpi.Comm) error {
			if c.Rank() != ranks/2 { // pack talks to nobody: one rank drives it
				return nil
			}
			f, err := Open(c, "oracle")
			if err != nil {
				return err
			}
			rng := rand.New(rand.NewSource(int64(1800 + ranks)))
			for i := 0; i < cases/4; i++ {
				ft, err := randomFiletype(rng)
				if err != nil {
					return err
				}
				if ft.Size() == 0 {
					continue
				}
				if err := f.SetView(int64(rng.Intn(64)), datatype.Byte, ft); err != nil {
					return err
				}
				data := make([]byte, rng.Intn(int(3*ft.Size())+1))
				rng.Read(data)
				runs, err := f.viewRuns(int64(rng.Intn(int(2*ft.Size()))), int64(len(data)))
				if err != nil {
					return err
				}
				// The aggregate domain is at least this rank's span; other
				// ranks' requests may stretch it either way.
				lo := int64(rng.Intn(64))
				hi := lo
				if len(runs) > 0 { // view runs ascend
					lo, hi = runs[0].Off, runs[len(runs)-1].End()
				}
				lo -= min(lo, int64(rng.Intn(3)*rng.Intn(40)))
				hi += int64(rng.Intn(3) * rng.Intn(40))
				if hi <= lo {
					hi = lo + 1
				}
				as := f.buildAggSet(lo, hi)

				for _, payload := range [][]byte{data, nil} {
					want := refExchangeMessages(as, runs, payload)
					buf, pieces, total := f.pack(as, runs, payload)
					if len(f.displs) != ranks+1 || f.displs[0] != 0 || f.displs[ranks] != len(buf) {
						return fmt.Errorf("case %d: displacements %v over %d bytes", i, f.displs, len(buf))
					}
					records := 0
					for dst := range want {
						if got := buf[f.displs[dst]:f.displs[dst+1]]; !bytes.Equal(got, want[dst]) {
							return fmt.Errorf("case %d (%s, domain [%d,%d)): message to rank %d\n got %v\nwant %v",
								i, ft, lo, hi, dst, got, want[dst])
						}
						records += int(binary.LittleEndian.Uint32(want[dst]))
					}
					if pieces != records || total != extent.Total(runs) {
						return fmt.Errorf("case %d: pack counted %d pieces of %d bytes, want %d of %d",
							i, pieces, total, records, extent.Total(runs))
					}
					if payload == nil && pieces > len(runs) {
						cut++
					}
				}
				for k := 0; k < as.part.N; k++ {
					if f.displs[k+1]-f.displs[k] == 4 { // a bare zero count
						empty++
						break
					}
				}
				if extent.Total(runs) < hi-lo {
					holes++
				}
			}
			return nil
		})
	}
	if cut < cases/20 || empty < cases/20 || holes < cases/20 {
		t.Errorf("generator too tame: %d cases cut a run, %d left an aggregator empty, %d left holes", cut, empty, holes)
	}
}

// TestCheckRunsRejectsBadGeometry: a message whose runs the receiving
// domain does not contain, or whose payload does not match them, is an
// error before any buffer is indexed — not a slice-bounds panic in the
// scatter or the gather.
func TestCheckRunsRejectsBadGeometry(t *testing.T) {
	mine := extent.Extent{Off: 100, Len: 50}
	seg := func(off, n int64) datatype.Segment { return datatype.Segment{Off: off, Len: n} }
	huge := refEncodeRuns(nil, make([]byte, 12))
	binary.LittleEndian.PutUint32(huge, 1<<31)
	for _, tc := range []struct {
		name     string
		msg      []byte
		withData bool
		ok       bool
	}{
		{"empty message", nil, true, true},
		{"no runs", refEncodeRuns(nil, nil), true, true},
		{"whole domain", refEncodeRuns([]datatype.Segment{seg(100, 50)}, make([]byte, 50)), true, true},
		{"read request", refEncodeRuns([]datatype.Segment{seg(100, 10), seg(120, 30)}, nil), false, true},
		{"abutting runs", refEncodeRuns([]datatype.Segment{seg(100, 10), seg(110, 5)}, nil), false, true},
		{"run below the domain", refEncodeRuns([]datatype.Segment{seg(99, 2)}, make([]byte, 2)), true, false},
		{"run past the domain", refEncodeRuns([]datatype.Segment{seg(140, 11)}, make([]byte, 11)), true, false},
		{"run far past the domain", refEncodeRuns([]datatype.Segment{seg(1<<40, 1)}, nil), false, false},
		{"empty run", refEncodeRuns([]datatype.Segment{seg(100, 0)}, nil), false, false},
		{"negative length", refEncodeRuns([]datatype.Segment{seg(120, -8)}, nil), false, false},
		{"length wraps the end", refEncodeRuns([]datatype.Segment{seg(120, 1<<63-1)}, nil), false, false},
		{"runs out of order", refEncodeRuns([]datatype.Segment{seg(120, 5), seg(100, 5)}, nil), false, false},
		{"runs overlap", refEncodeRuns([]datatype.Segment{seg(100, 10), seg(105, 10)}, nil), false, false},
		{"payload short", refEncodeRuns([]datatype.Segment{seg(100, 10)}, make([]byte, 9)), true, false},
		{"payload long", refEncodeRuns([]datatype.Segment{seg(100, 10)}, make([]byte, 11)), true, false},
		{"payload on a read request", refEncodeRuns([]datatype.Segment{seg(100, 10)}, make([]byte, 10)), false, false},
		{"count beyond the message", huge, true, false},
		{"truncated count", []byte{1, 0}, true, false},
	} {
		prior := []extent.Extent{seg(0, 1)}
		runs, total, err := checkRuns(prior, tc.msg, mine, tc.withData)
		if (err == nil) != tc.ok {
			t.Errorf("%s: checkRuns = (%v, %d, %v), want ok=%v", tc.name, runs, total, err, tc.ok)
		}
		if len(runs) < 1 || runs[0] != prior[0] || err != nil && len(runs) != 1 {
			t.Errorf("%s: checkRuns left %v behind the runs it was handed, err %v", tc.name, runs, err)
		}
	}
	// A rank that aggregates nothing accepts only the empty message.
	if _, _, err := checkRuns(nil, refEncodeRuns([]datatype.Segment{seg(0, 1)}, nil), extent.Extent{}, false); err == nil {
		t.Error("a run was accepted into an empty domain")
	}
}

// FuzzDecodeRuns: the exchange decoder never panics, and what it accepts
// re-encodes to the bytes it was given (ROADMAP 5e).
func FuzzDecodeRuns(f *testing.F) {
	f.Fuzz(func(t *testing.T, msg []byte, off, length int64, withData bool) {
		mine := extent.Extent{Off: off, Len: length}
		runs, total, err := checkRuns(nil, msg, mine, withData)
		if err != nil || len(msg) == 0 {
			return
		}
		recs, payload := runTable(msg)
		if len(runs) != len(recs)/extent.RunWire || extent.Total(runs) != total || total > max(mine.Len, 0) {
			t.Fatalf("accepted %d records totalling %d in a domain of %d; decoded %v", len(recs)/extent.RunWire, total, mine.Len, runs)
		}
		if again := refEncodeRuns(runs, payload); !bytes.Equal(again, msg) {
			t.Fatalf("accepted message does not re-encode to itself:\n got %v\nwant %v", again, msg)
		}
	})
}

// TestSecondCollectiveCallAllocations pins what a collective call through a
// warmed-up handle allocates: beyond what its collectives and its file
// system requests cost on their own, a WriteAll makes the send buffer and
// the Malloc'ed domain buffer; a ReadAll makes the request and reply
// buffers, the lent domain's page table and the returned slice — whatever
// the number of runs.
func TestSecondCollectiveCallAllocations(t *testing.T) {
	run(t, 1, func(c *mpi.Comm) error {
		f, err := Open(c, "allocs")
		if err != nil {
			return err
		}
		for _, blocks := range []int{16, 1024} {
			ft, err := datatype.Vector(blocks, 1, 2, datatype.Int)
			if err != nil {
				return err
			}
			if err := f.SetView(0, datatype.Int, ft); err != nil {
				return err
			}
			data := make([]byte, blocks*4)
			domain := make([]byte, (2*blocks-1)*4)
			must := func(err error) {
				if err != nil {
					panic(err)
				}
			}
			per := func(fn func()) float64 {
				fn() // warm up: scratch lists, mailbox lane
				return testing.AllocsPerRun(20, fn)
			}
			// The collectives every call makes, on the values this call
			// reduces (boxing an int64 allocates or not by its value).
			collectives := per(func() {
				runs, err := f.viewRuns(0, int64(len(data)))
				must(err)
				_, _, err = f.aggregateDomain(runs)
				must(err)
				must(c.Barrier())
			})
			fsWrite := per(func() { must(f.writeRetry(0, domain)) })
			fsRead := per(func() { must(f.readRetry(0, domain)) })
			write := per(func() { must(f.SeekTo(0)); must(f.WriteAll(data)) })
			read := per(func() { must(f.SeekTo(0)); _, err := f.ReadAll(int64(len(data))); must(err) })
			// The strided write leaves holes: preread, then write.
			if want := collectives + fsRead + fsWrite + 2; write != want {
				return fmt.Errorf("%d blocks: second WriteAll allocates %v times, want %v", blocks, write, want)
			}
			if want := collectives + fsRead + 4; read != want {
				return fmt.Errorf("%d blocks: second ReadAll allocates %v times, want %v", blocks, read, want)
			}
		}
		return nil
	})
}

// TestFirstCollectiveCallAllocatesOneRunList pins what a fresh handle's
// first WriteAll and ReadAll allocate beyond its second, on a file and a
// communicator already warm: the handle's one run list, 16 B a run, sized
// once by the view walk and reused for the runs the aggregator receives,
// and the two P-slot exchange tables — not a second, per-aggregator list
// beside it.
func TestFirstCollectiveCallAllocatesOneRunList(t *testing.T) {
	run(t, 1, func(c *mpi.Comm) error {
		for _, blocks := range []int{16, 1024} {
			ft, err := datatype.Vector(blocks, 1, 2, datatype.Int)
			if err != nil {
				return err
			}
			data := make([]byte, 4*blocks)
			for _, op := range []string{"WriteAll", "ReadAll"} {
				call := func(f *File) error {
					if err := f.SeekTo(0); err != nil {
						return err
					}
					if op == "WriteAll" {
						return f.WriteAll(data)
					}
					_, err := f.ReadAll(int64(len(data)))
					return err
				}
				allocated := func(f *File) (int64, error) {
					var before, after runtime.MemStats
					runtime.ReadMemStats(&before)
					err := call(f)
					runtime.ReadMemStats(&after)
					return int64(after.TotalAlloc - before.TotalAlloc), err
				}
				var first, second int64
				for i := 0; i < 4; i++ { // handles 0-2 warm the file and the communicator
					f, err := Open(c, "first-call")
					if err != nil {
						return err
					}
					if err := f.SetView(0, datatype.Int, ft); err != nil {
						return err
					}
					if first, err = allocated(f); err != nil {
						return err
					}
					if second, err = allocated(f); err != nil {
						return err
					}
				}
				// An Extent is two int64s; the slots are 8(P+1) + 24P bytes.
				runList := int64(16 * blocks)
				if extra := first - second; extra < runList || extra > runList+64 {
					return fmt.Errorf("%d blocks: a first %s allocates %d B beyond the second, want one run list of %d B and the exchange slots",
						blocks, op, extra, runList)
				}
			}
		}
		return nil
	})
}

// TestWriteAllTurnFailure: an aggregator that receives a malformed exchange
// message fails in its I/O turn with checkRuns' error, and every peer —
// those whose turns came first, those still waiting, and the sender — fails
// with ErrAborted instead of hanging. Rank 1 plays WriteAll's collectives by
// hand, contributing nothing to the domain and sending rank 2 one bad
// message; ranks 0, 2 and 3 each write one 16-byte domain. The turns before
// the failing one still write: the error is returned in its turn, where it
// was found before the checks moved ahead of the turns.
func TestWriteAllTurnFailure(t *testing.T) {
	const procs, block, sender, victim = 4, 16, 1, 2
	seg := func(off, n int64) datatype.Segment { return datatype.Segment{Off: off, Len: n} }
	for _, tc := range []struct {
		name string
		msg  func(dom extent.Extent) []byte
		want string
	}{
		{"runs out of order", func(dom extent.Extent) []byte {
			return refEncodeRuns([]datatype.Segment{seg(dom.Off+8, 4), seg(dom.Off, 4)}, make([]byte, 8))
		}, "out of order"},
		{"payload of the wrong length", func(dom extent.Extent) []byte {
			return refEncodeRuns([]datatype.Segment{seg(dom.Off, 4)}, make([]byte, 3))
		}, "payload bytes"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			errs := make([]error, procs)
			var rep mpi.Report
			done := make(chan struct{})
			go func() {
				defer close(done)
				rep, _ = mpi.Run(mpi.Config{Procs: procs}, func(c *mpi.Comm) error {
					errs[c.Rank()] = func() error {
						f, err := Open(c, "turn-failure")
						if err != nil {
							return err
						}
						if c.Rank() != sender {
							if err := f.SeekTo(int64(c.Rank()) * block); err != nil {
								return err
							}
							return f.WriteAll(make([]byte, block))
						}
						lo, hi, err := f.aggregateDomain(nil)
						if err != nil {
							return err
						}
						msg := tc.msg(f.buildAggSet(lo, hi).part.Domain(victim))
						displs := make([]int, procs+1)
						for r := victim + 1; r <= procs; r++ {
							displs[r] = len(msg)
						}
						if err := c.AlltoallvFlat(msg, displs, make([][]byte, procs)); err != nil {
							return err
						}
						if err := c.InClockOrder(func() error { return nil }); err != nil {
							return err
						}
						return c.Barrier()
					}()
					return errs[c.Rank()]
				})
			}()
			select {
			case <-done:
			case <-time.After(time.Minute):
				t.Fatal("a rank still waits a minute after the bad message")
			}
			// Rank 0 enters the turns first (clock ties go to the lower rank)
			// and writes its domain; rank 3 enters after the aggregator and
			// never gets a turn.
			if rep.FS.Writes != 1 || rep.FS.BytesWritten != block {
				t.Errorf("the file system saw %d writes of %d bytes, want rank 0's one write of %d", rep.FS.Writes, rep.FS.BytesWritten, block)
			}
			for r, err := range errs {
				switch {
				case r == victim && (err == nil || !strings.Contains(err.Error(), tc.want)):
					t.Errorf("aggregator %d returned %v, want the checkRuns error (%q)", r, err, tc.want)
				case r != victim && !errors.Is(err, mpi.ErrAborted):
					t.Errorf("rank %d returned %v, want ErrAborted", r, err)
				}
			}
		})
	}
}
