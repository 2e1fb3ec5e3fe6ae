package main

// delegate-rw: the delegation tier end to end. Clients write a shared file
// as 2 KiB pieces dealt round-robin (so every domain block is assembled
// from many clients' pieces), flush, close, reopen, and read their own
// pieces back twice: a cold pass that fills the servers' block caches and
// a hot pass served from them. Writes sit beside both read passes so a
// cache or scheduler gain that costs the write epoch shows.

import (
	"bytes"
	"fmt"

	"github.com/tcio/tcio/internal/delegate"
	"github.com/tcio/tcio/internal/mpi"
	"github.com/tcio/tcio/internal/simtime"
	"github.com/tcio/tcio/internal/tcio"
)

const (
	delegateScale   = 16
	delegateSegSize = 16 << 10
	delegateReqSize = 2 << 10
	delegateQuantum = 4 << 10
)

type delegateProg struct {
	clients, servers int
	segsPerClient    int
	cacheBlocks      int

	data, want []byte // the whole file image
}

func (d *delegateProg) fileBytes() int64 {
	return int64(d.clients) * int64(d.segsPerClient) * delegateSegSize
}

func (d *delegateProg) geometry() string {
	blocks := d.fileBytes() / (4 * delegateSegSize)
	return fmt.Sprintf("clients=%d servers=%d byte_scale=%d seg=%d segs_per_client=%d req=%d real_bytes=%d cache_blocks=%d blocks_per_server=%d read_quantum=%d",
		d.clients, d.servers, delegateScale, delegateSegSize, d.segsPerClient, delegateReqSize,
		d.fileBytes(), d.cacheBlocks, blocks/int64(d.servers), delegateQuantum)
}

func (d *delegateProg) generate(seed int64) string {
	d.data = seededBytes(seed, 2, int(d.fileBytes()))
	d.want = d.data
	return sha256Hex(d.data)
}

func (d *delegateProg) corruptExpected() {
	d.want = bytes.Clone(d.data)
	d.want[len(d.want)/2] ^= 0x40
}

func (d *delegateProg) rep(tr *tracer) repOut {
	machine, fs := newEnv(delegateScale)
	col := &delegate.Collector{}
	dcfg := delegate.Config{
		ServerRanks:       d.servers,
		ServerCacheBlocks: d.cacheBlocks,
		ReadQuantum:       delegateQuantum,
		TCIO: tcio.Config{
			SegmentSize:    delegateSegSize,
			NumSegments:    d.segsPerClient,
			DemandPopulate: true,
			Trace:          tr.recorder(),
		},
		Collect: col,
	}
	const name = "delegate-rw.dat"
	pieces := d.fileBytes() / delegateReqSize

	// Per-client slots: each client writes only its own.
	type clientOut struct {
		ends         [3]simtime.Time // after write close, cold pass, hot pass
		creditStalls int64
	}
	outs := make([]clientOut, d.clients)

	body := func(t *delegate.Tier, p *probe) error {
		c, me := t.Comm(), &outs[t.ClientIndex()]
		mine := func(fn func(off int64) error) error {
			for q := int64(t.ClientIndex()); q < pieces; q += int64(d.clients) {
				if err := fn(q * delegateReqSize); err != nil {
					return err
				}
			}
			return nil
		}
		call := func(name string, fn func() error) error {
			p.begin("delegate", name)
			defer p.end()
			return fn()
		}

		// The client's share of the file is its application data.
		app := machine.Scale(d.fileBytes() / int64(d.clients))
		if err := c.Reserve(app); err != nil {
			return err
		}
		defer c.Release(app)

		p.begin("app", "write_phase")
		var w *delegate.File
		if err := call("open", func() (err error) { w, err = t.Open(name, tcio.WriteMode); return }); err != nil {
			return err
		}
		f := p.fold("delegate", "writeat")
		if err := mine(func(off int64) error {
			m := f.enter()
			defer f.leave(m)
			return w.WriteAt(off, d.data[off:off+delegateReqSize])
		}); err != nil {
			return err
		}
		if err := call("flush", w.Flush); err != nil {
			return err
		}
		if err := call("close", w.Close); err != nil {
			return err
		}
		me.creditStalls = w.Stats().CreditStalls
		me.ends[0] = c.Now()
		p.end()

		var r *delegate.File
		dst := make([]byte, delegateReqSize)
		for pass, passName := range []string{"cold_pass", "hot_pass"} {
			p.begin("app", passName)
			if pass == 0 {
				if err := call("open", func() (err error) { r, err = t.Open(name, tcio.ReadMode); return }); err != nil {
					return err
				}
			}
			f := p.fold("delegate", "readat")
			if err := mine(func(off int64) error {
				m := f.enter()
				err := r.ReadAt(off, dst)
				f.leave(m)
				if err != nil {
					return err
				}
				// Independent reads are synchronous: dst is valid now.
				if !bytes.Equal(dst, d.want[off:off+delegateReqSize]) {
					return mismatch(c.Rank(), fmt.Sprintf("offset %d", off))
				}
				return nil
			}); err != nil {
				return err
			}
			if err := call("fetch", r.Fetch); err != nil {
				return err
			}
			if pass == 1 {
				if err := call("close", r.Close); err != nil {
					return err
				}
			}
			me.ends[1+pass] = c.Now()
			p.end()
		}
		return nil
	}

	rep, err := runWorld(tr, "run", mpi.Config{Procs: d.clients + d.servers, Machine: machine, FS: fs},
		func(c *mpi.Comm, p *probe) error {
			p.begin("delegate", "run")
			defer p.end()
			return delegate.Run(c, dcfg, func(t *delegate.Tier) error { return body(t, p) })
		})

	var out repOut
	var wrote int64
	for _, o := range outs {
		if o.ends[0] > 0 {
			wrote++
		}
		out.writeEnd = simtime.Max(out.writeEnd, o.ends[0])
		out.coldEnd = simtime.Max(out.coldEnd, o.ends[1])
		out.hotEnd = simtime.Max(out.hotEnd, o.ends[2])
		out.creditStalls += o.creditStalls
	}
	out.servers = col.Servers()
	simBytes := d.fileBytes() * delegateScale
	// One world carries both phases: a failure after every client closed its
	// written file fails the read phase alone.
	werr := err
	if err != nil && wrote == int64(d.clients) {
		werr = nil
	}
	out.write = phaseOut{name: "write", simBytes: simBytes, vt: out.writeEnd.Sub(0), err: werr}
	out.read = phaseOut{name: "read", simBytes: 2 * simBytes, vt: out.hotEnd.Sub(out.writeEnd), err: err}
	out.peakMem = rep.PeakMemory
	out.net, out.fs = rep.Net, rep.FS
	return out
}
