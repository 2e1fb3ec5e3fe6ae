package mpi

import (
	"bytes"
	"fmt"
	"sort"
	"sync"
	"testing"

	"github.com/tcio/tcio/internal/cluster"
)

// codecRequests and codecReplies are the round-trip cases. Their encodings,
// and TestRPCCodecRejectsCorrupt's inputs, are the fuzz targets' seed corpus
// under testdata/fuzz, which every plain `go test` replays.
var codecRequests = []RPCRequest{
	{Op: OpOpen, Handle: 0, Seq: 0},
	{Op: OpWrite, Handle: 3, Seq: 41, Off: 1 << 30, Len: 5, Data: []byte("hello")},
	{Op: OpRead, Handle: 1, Seq: -1, Off: 7, Len: 4096},
	{Op: OpReadIntent, Handle: 2, Seq: 3, Data: []byte{0, 0, 0, 0, 0, 0, 0, 0, 16, 0, 0, 0, 0, 0, 0, 0}},
	{Op: OpShutdown},
}

var codecReplies = []RPCReply{
	{OK: true, Seq: 9, Data: []byte{1, 2, 3}},
	{OK: false, Err: "pfs: boom", Seq: 2},
	{OK: false, Code: RPCErrExhausted, Err: "retries exhausted", Seq: 4},
	{OK: false, Code: RPCErrGeneric, Err: "other", Seq: 5, Data: []byte{9}},
	{},
}

func TestRPCCodecRoundTrip(t *testing.T) {
	var p bufPool
	for _, in := range codecRequests {
		out, err := decodeRequest(&p, encodeRequest(&p, &in))
		if err != nil {
			t.Fatalf("%s: %v", in.Op, err)
		}
		if out.Op != in.Op || out.Handle != in.Handle || out.Seq != in.Seq ||
			out.Off != in.Off || out.Len != in.Len || !bytes.Equal(out.Data, in.Data) {
			t.Fatalf("%s round-trip: got %+v want %+v", in.Op, out, in)
		}
		// The decoded request holds its staging buffer until Release, which
		// parks it exactly once however often it is called — and poisons it,
		// so whoever kept a slice of Data reads bytes no test expects.
		if p.idle() != 0 {
			t.Fatalf("%s: staging buffer back in the pool before Release", in.Op)
		}
		kept := out.Data
		out.Release()
		out.Release()
		if p.idle() != 1 || out.Data != nil {
			t.Fatalf("%s: %d buffers parked after Release, Data %v", in.Op, p.idle(), out.Data)
		}
		if len(kept) > 0 && !bytes.Equal(kept, bytes.Repeat([]byte{poolPoison}, len(kept))) {
			t.Fatalf("%s: released payload still reads %x", in.Op, kept)
		}
		p = bufPool{}
	}
	for i, in := range codecReplies {
		out, err := decodeReply(&p, encodeReply(&p, &in))
		if err != nil {
			t.Fatalf("reply %d: %v", i, err)
		}
		if out.OK != in.OK || out.Code != in.Code || out.Err != in.Err ||
			out.Seq != in.Seq || !bytes.Equal(out.Data, in.Data) {
			t.Fatalf("reply %d round-trip: got %+v want %+v", i, out, in)
		}
		out.Release()
		out.Release()
		if p.idle() != 1 || out.Data != nil || out.Err != in.Err {
			t.Fatalf("reply %d: %d buffers parked after Release, %+v", i, p.idle(), out)
		}
		p = bufPool{}
	}
}

func TestRPCCodecRejectsCorrupt(t *testing.T) {
	var p bufPool
	if _, err := decodeRequest(&p, []byte{1, 2, 3}); err == nil {
		t.Fatal("truncated request decoded")
	}
	buf := encodeRequest(&p, &RPCRequest{Op: OpWrite, Data: []byte("abcd")})
	if _, err := decodeRequest(&p, buf[:len(buf)-1]); err == nil {
		t.Fatal("short payload decoded")
	}
	if _, err := decodeReply(&p, []byte{0}); err == nil {
		t.Fatal("truncated reply decoded")
	}
	rbuf := encodeReply(&p, &RPCReply{Err: "x", Data: []byte("yz")})
	if _, err := decodeReply(&p, rbuf[:len(rbuf)-1]); err == nil {
		t.Fatal("short reply decoded")
	}
	// A pooled buffer goes back the moment it is rejected (shortening a
	// slice keeps its capacity), so the reply was staged in the request's
	// buffer; the literals never belonged to the pool.
	if n := p.idle(); n != 1 || &rbuf[0] != &buf[0] {
		t.Fatalf("%d buffers parked after four rejections (reused: %v), want the one", n, &rbuf[0] == &buf[0])
	}
}

// fuzzStaged copies fuzz input into a pool buffer, as the wire would
// deliver it.
func fuzzStaged(p *bufPool, in []byte) []byte {
	buf := p.get(len(in))
	copy(buf, in)
	return buf
}

// FuzzDecodeRequest: the decoder never panics, an accepted buffer
// re-encodes to the same bytes, and the staging buffer returns to the pool
// exactly once whether the decode was accepted (at Release) or rejected
// (at once; Release on the zero request must not free it again).
func FuzzDecodeRequest(f *testing.F) {
	f.Fuzz(func(t *testing.T, in []byte) {
		var p bufPool
		req, err := decodeRequest(&p, fuzzStaged(&p, in))
		if err == nil {
			if p.idle() != 0 {
				t.Fatal("accepted request's buffer already parked")
			}
			if out := encodeRequest(&p, &req); !bytes.Equal(out, in) {
				t.Fatalf("re-encode differs:\n in %x\nout %x", in, out)
			}
		}
		req.Release()
		req.Release()
		if want := min(len(in), 1); p.idle() != want {
			t.Fatalf("err=%v: %d buffers parked, want %d", err, p.idle(), want)
		}
	})
}

// FuzzDecodeReply is FuzzDecodeRequest for replies. A reply's OK byte
// decodes as "non-zero", so the re-encode is compared after normalizing it.
func FuzzDecodeReply(f *testing.F) {
	f.Fuzz(func(t *testing.T, in []byte) {
		var p bufPool
		rep, err := decodeReply(&p, fuzzStaged(&p, in))
		if err == nil {
			if p.idle() != 0 {
				t.Fatal("accepted reply's buffer already parked")
			}
			want := bytes.Clone(in)
			if want[0] != 0 {
				want[0] = 1
			}
			if out := encodeReply(&p, &rep); !bytes.Equal(out, want) {
				t.Fatalf("re-encode differs:\n in %x\nout %x", want, out)
			}
		}
		rep.Release()
		rep.Release()
		if want := min(len(in), 1); p.idle() != want {
			t.Fatalf("err=%v: %d buffers parked, want %d", err, p.idle(), want)
		}
	})
}

// TestRPCRoundTripAllocatesNothing pins the steady state of the delegation
// tier's message path: a 2 KiB request answered by a 2 KiB reply, both
// released, draws every staging buffer from the world's pool.
func TestRPCRoundTripAllocatesNothing(t *testing.T) {
	const tag, rounds = 9, 200
	payload := bytes.Repeat([]byte{0x5A}, 2048)
	var allocs float64
	_, err := Run(Config{Procs: 2}, func(c *Comm) error {
		if c.Rank() == 1 {
			for i := 0; i < rounds+1; i++ { // AllocsPerRun adds a warm-up call
				req, err := c.RecvRequest(0, tag)
				if err != nil {
					return err
				}
				err = c.SendReply(0, tag+1, &RPCReply{OK: true, Seq: req.Seq, Data: req.Data})
				req.Release()
				if err != nil {
					return err
				}
			}
			return nil
		}
		var rtErr error
		allocs = testing.AllocsPerRun(rounds, func() {
			if err := c.SendRequest(1, tag, &RPCRequest{Op: OpWrite, Len: 2048, Data: payload}); err != nil {
				rtErr = err
				return
			}
			rep, err := c.RecvReply(1, tag+1)
			if err != nil || !bytes.Equal(rep.Data, payload) {
				rtErr = fmt.Errorf("reply %+v: %v", rep, err)
			}
			rep.Release()
		})
		return rtErr
	})
	if err != nil {
		t.Fatal(err)
	}
	if allocs != 0 {
		t.Fatalf("warm RPC round trip allocates %.1f objects, want 0", allocs)
	}
}

// TestRPCServe drives a 3-rank world: rank 2 serves an any-source receive
// loop (the shape of delegate's server loop), ranks 0-1 each send two
// writes, one synchronous read, and a shutdown. The server must see the
// true envelope source as Client and per-client sequence order must
// survive the any-source loop.
func TestRPCServe(t *testing.T) {
	const tag = 77
	var (
		mu   sync.Mutex
		seen []string
	)
	_, err := Run(Config{Procs: 3, Machine: cluster.Lonestar()}, func(c *Comm) error {
		if c.Rank() == 2 {
			for remaining := 2; remaining > 0; {
				req, err := c.RecvRequest(AnySource, tag)
				if err != nil {
					return err
				}
				if req.Op == OpShutdown {
					remaining--
					continue
				}
				mu.Lock()
				seen = append(seen, fmt.Sprintf("%s c%d seq%d off%d %q",
					req.Op, req.Client, req.Seq, req.Off, req.Data))
				mu.Unlock()
				if req.Op == OpRead {
					if err := c.SendReply(req.Client, tag+1, &RPCReply{
						OK: true, Seq: req.Seq, Data: []byte{byte(req.Client), byte(req.Off)},
					}); err != nil {
						return err
					}
				}
			}
			return nil
		}
		me := c.Rank()
		for s := 0; s < 2; s++ {
			if err := c.SendRequest(2, tag, &RPCRequest{
				Op: OpWrite, Seq: int64(s), Off: int64(me*100 + s),
				Data: []byte{byte(me), byte(s)},
			}); err != nil {
				return err
			}
		}
		if err := c.SendRequest(2, tag, &RPCRequest{Op: OpRead, Seq: 2, Off: int64(me)}); err != nil {
			return err
		}
		rep, err := c.RecvReply(2, tag+1)
		if err != nil {
			return err
		}
		if !rep.OK || rep.Seq != 2 || !bytes.Equal(rep.Data, []byte{byte(me), byte(me)}) {
			return fmt.Errorf("rank %d: bad reply %+v", me, rep)
		}
		return c.SendRequest(2, tag, &RPCRequest{Op: OpShutdown})
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != 6 {
		t.Fatalf("server handled %d requests, want 6: %v", len(seen), seen)
	}
	// Arrival interleaving across clients is scheduler-dependent, but each
	// client's own stream is FIFO: sorting the log restores a canonical view.
	sort.Strings(seen)
	want := []string{
		`read c0 seq2 off0 ""`,
		`read c1 seq2 off1 ""`,
		`write c0 seq0 off0 "\x00\x00"`,
		`write c0 seq1 off1 "\x00\x01"`,
		`write c1 seq0 off100 "\x01\x00"`,
		`write c1 seq1 off101 "\x01\x01"`,
	}
	for i := range want {
		if seen[i] != want[i] {
			t.Fatalf("request log mismatch at %d:\ngot  %q\nwant %q", i, seen[i], want[i])
		}
	}
}

// TestTryRecvRequest pins the non-blocking receive path a scheduling
// server loop depends on: a miss returns immediately without consuming
// anything, a hit matches FIFO order and fills Client from the envelope
// source exactly like RecvRequest.
func TestTryRecvRequest(t *testing.T) {
	const tag = 88
	_, err := Run(Config{Procs: 2, Machine: cluster.Lonestar()}, func(c *Comm) error {
		if c.Rank() == 0 {
			// Nothing sent yet from rank 1's perspective until the barrier.
			for s := 0; s < 3; s++ {
				if err := c.SendRequest(1, tag, &RPCRequest{Op: OpWrite, Seq: int64(s)}); err != nil {
					return err
				}
			}
			return c.Barrier()
		}
		if _, ok, err := c.TryRecvRequest(AnySource, tag+1); err != nil || ok {
			return fmt.Errorf("empty tryTake: ok=%v err=%v", ok, err)
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		// All three requests are buffered now; TryRecvRequest must drain
		// them in FIFO order and then report a miss.
		for s := 0; s < 3; s++ {
			req, ok, err := c.TryRecvRequest(AnySource, tag)
			if err != nil {
				return err
			}
			if !ok || req.Client != 0 || req.Seq != int64(s) {
				return fmt.Errorf("drain %d: ok=%v req=%+v", s, ok, req)
			}
		}
		if _, ok, err := c.TryRecvRequest(AnySource, tag); err != nil || ok {
			return fmt.Errorf("drained mailbox: ok=%v err=%v", ok, err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
