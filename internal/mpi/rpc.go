package mpi

// A typed request/reply protocol over the point-to-point path. The I/O
// delegation tier (internal/delegate) speaks it between client ranks and
// dedicated server ranks, but nothing in it is delegation-specific: any
// rank can serve a tag. The wire model bills a fixed header at metadata
// scale plus the payload at the machine's byte scale, so a control-only
// request (flush marker, close) costs a header, not a data transfer.

import (
	"encoding/binary"
	"fmt"

	"github.com/tcio/tcio/internal/netsim"
	"github.com/tcio/tcio/internal/simtime"
)

// RPCOp identifies a request's operation.
type RPCOp uint8

const (
	OpOpen RPCOp = iota + 1
	OpWrite
	OpRead
	OpFlush
	OpClose
	// OpShutdown retires one client from a server's request loop; the
	// server exits once every client has sent it.
	OpShutdown
	// OpReadIntent ships one client's read-intent vector for a collective
	// read epoch (Data holds fixed-width off/len run pairs; see
	// internal/delegate). Appended after OpShutdown so existing wire
	// values stay stable.
	OpReadIntent
)

func (op RPCOp) String() string {
	switch op {
	case OpOpen:
		return "open"
	case OpWrite:
		return "write"
	case OpRead:
		return "read"
	case OpFlush:
		return "flush"
	case OpClose:
		return "close"
	case OpShutdown:
		return "shutdown"
	case OpReadIntent:
		return "read-intent"
	}
	return fmt.Sprintf("op(%d)", uint8(op))
}

// RPCRequest is one client->server message. Client is not encoded on the
// wire: the receiver fills it from the envelope source, so a client cannot
// impersonate another rank. A received request's Data aliases its staging
// buffer and is valid until Release.
type RPCRequest struct {
	Op     RPCOp
	Client int
	Handle int32 // server-side file handle (collective open ordinal)
	Seq    int64 // per-client sequence number; orders staged writes
	Off    int64 // file offset (write, read)
	Len    int64 // request length (read); len(Data) for writes
	Data   []byte

	// The staging buffer Data aliases and the pool Release returns it to;
	// nil on a request that was built locally rather than received.
	pool *bufPool
	buf  []byte
}

// RPCReply is one server->client message. Code classifies a failure so
// the sender's typed error survives the string flattening across the wire
// (a reply string cannot be errors.Is-matched; the code can). A received
// reply's Data aliases its staging buffer and is valid until Release.
type RPCReply struct {
	OK   bool
	Code RPCErrCode
	Err  string
	Seq  int64
	Data []byte
	// Ready is when Data's bytes exist on the sender — a block still
	// arriving from the file system. Not encoded: it sets the departure
	// floor only (SendReply), and a received reply's is zero.
	Ready simtime.Time

	pool *bufPool // as in RPCRequest
	buf  []byte
}

// Release returns the request's staging buffer to the world's pool; Data
// must not be read afterwards. Idempotent on one variable only: messages
// travel by value, and a second copy's Release panics in test binaries.
func (r *RPCRequest) Release() { r.pool.put(r.buf); r.buf, r.Data = nil, nil }

// Release returns the reply's staging buffer; see RPCRequest.Release.
func (r *RPCReply) Release() { r.pool.put(r.buf); r.buf, r.Data = nil, nil }

// RPCErrCode is the wire classification of a failed reply.
type RPCErrCode uint8

const (
	// RPCErrNone is the zero code: no classification (or no error).
	RPCErrNone RPCErrCode = iota
	// RPCErrGeneric marks a failure with no finer class.
	RPCErrGeneric
	// RPCErrExhausted marks a request that ran out of retry budget
	// (faults.ErrExhaustedRetries on the serving side).
	RPCErrExhausted
)

// Wire sizes billed for the fixed portions of each message. Headers ride
// at metadata scale (see sendStaged): a scaled run's worth of requests
// still ships one header each.
const (
	rpcReqHeaderWire = 1 + 4 + 8 + 8 + 8 + 4 // op, handle, seq, off, len, datalen
	rpcRepHeaderWire = 1 + 1 + 8 + 2 + 4     // ok, code, seq, errlen, datalen
	rpcMaxErr        = 1<<16 - 1
)

// encodeRequest stages the request into a buffer from p; the caller hands
// it to sendStaged, which owns it from then on.
func encodeRequest(p *bufPool, r *RPCRequest) []byte {
	buf := p.get(rpcReqHeaderWire + len(r.Data))
	buf[0] = byte(r.Op)
	binary.LittleEndian.PutUint32(buf[1:], uint32(r.Handle))
	binary.LittleEndian.PutUint64(buf[5:], uint64(r.Seq))
	binary.LittleEndian.PutUint64(buf[13:], uint64(r.Off))
	binary.LittleEndian.PutUint64(buf[21:], uint64(r.Len))
	binary.LittleEndian.PutUint32(buf[29:], uint32(len(r.Data)))
	copy(buf[rpcReqHeaderWire:], r.Data)
	return buf
}

// decodeRequest parses a staged request and leases buf to it: Data aliases
// buf until Release returns it to p. A rejected buffer goes back at once.
func decodeRequest(p *bufPool, buf []byte) (RPCRequest, error) {
	if len(buf) < rpcReqHeaderWire || int(binary.LittleEndian.Uint32(buf[29:])) != len(buf)-rpcReqHeaderWire {
		p.put(buf)
		return RPCRequest{}, fmt.Errorf("mpi: rpc request of %d bytes is truncated or disagrees with its header", len(buf))
	}
	r := RPCRequest{
		Op:     RPCOp(buf[0]),
		Handle: int32(binary.LittleEndian.Uint32(buf[1:])),
		Seq:    int64(binary.LittleEndian.Uint64(buf[5:])),
		Off:    int64(binary.LittleEndian.Uint64(buf[13:])),
		Len:    int64(binary.LittleEndian.Uint64(buf[21:])),
		pool:   p,
		buf:    buf,
	}
	if len(buf) > rpcReqHeaderWire {
		r.Data = buf[rpcReqHeaderWire:]
	}
	return r, nil
}

// encodeReply stages the reply into a buffer from p; see encodeRequest.
func encodeReply(p *bufPool, r *RPCReply) []byte {
	errStr := r.Err
	if len(errStr) > rpcMaxErr {
		errStr = errStr[:rpcMaxErr]
	}
	buf := p.get(rpcRepHeaderWire + len(errStr) + len(r.Data))
	buf[0] = 0 // recycled buffers hold stale bytes; every byte must be set
	if r.OK {
		buf[0] = 1
	}
	buf[1] = byte(r.Code)
	binary.LittleEndian.PutUint64(buf[2:], uint64(r.Seq))
	binary.LittleEndian.PutUint16(buf[10:], uint16(len(errStr)))
	binary.LittleEndian.PutUint32(buf[12:], uint32(len(r.Data)))
	copy(buf[rpcRepHeaderWire:], errStr)
	copy(buf[rpcRepHeaderWire+len(errStr):], r.Data)
	return buf
}

// decodeReply is decodeRequest for replies. Err is copied out of buf, so
// it outlives Release.
func decodeReply(p *bufPool, buf []byte) (RPCReply, error) {
	if len(buf) < rpcRepHeaderWire || rpcRepHeaderWire+
		int(binary.LittleEndian.Uint16(buf[10:]))+int(binary.LittleEndian.Uint32(buf[12:])) != len(buf) {
		p.put(buf)
		return RPCReply{}, fmt.Errorf("mpi: rpc reply of %d bytes is truncated or disagrees with its header", len(buf))
	}
	dataAt := rpcRepHeaderWire + int(binary.LittleEndian.Uint16(buf[10:]))
	r := RPCReply{
		OK:   buf[0] != 0,
		Code: RPCErrCode(buf[1]),
		Seq:  int64(binary.LittleEndian.Uint64(buf[2:])),
		Err:  string(buf[rpcRepHeaderWire:dataAt]),
		pool: p,
		buf:  buf,
	}
	if dataAt < len(buf) {
		r.Data = buf[dataAt:]
	}
	return r, nil
}

// SendRequest ships req to rank dst on tag. The header is billed at
// metadata scale and the payload at the machine's byte scale, so bulk
// writes pay for their data while control messages stay cheap. req.Data is
// copied before the call returns.
func (c *Comm) SendRequest(dst, tag int, req *RPCRequest) error {
	if err := userTag("SendRequest", tag); err != nil {
		return err
	}
	sim := int64(rpcReqHeaderWire) + c.w.machine.Scale(int64(len(req.Data)))
	return c.sendStaged(dst, tag, encodeRequest(&c.w.pool, req), netsim.TwoSided, sim, 0)
}

// RecvRequest blocks for the next request from src (AnySource for any
// client) on tag, advancing the clock to its arrival. Client is filled
// from the envelope source. The caller owns the request: its Data is valid
// until Release.
func (c *Comm) RecvRequest(src, tag int) (RPCRequest, error) {
	e, err := c.receive("RecvRequest", src, tag)
	if err != nil {
		return RPCRequest{}, err
	}
	return c.openRequest(e)
}

// TryRecvRequest is RecvRequest without blocking: it returns the next
// matching request if one is already buffered, or ok == false immediately.
// A scheduler loop uses it to drain queued work whenever no new request
// has arrived, without ever parking while the queue is non-empty. It never
// blocks, so it does not look for an abort (see World.park).
func (c *Comm) TryRecvRequest(src, tag int) (RPCRequest, bool, error) {
	if err := c.checkRecv("TryRecvRequest", src, tag); err != nil {
		return RPCRequest{}, false, err
	}
	c.w.touch(c.rank, "tryrecv", c.clock().Now())
	e, ok := c.w.ranks[c.rank].box.tryTake(src, tag)
	if !ok {
		return RPCRequest{}, false, nil
	}
	req, err := c.openRequest(e)
	return req, err == nil, err
}

// openRequest completes a receive: advance to the arrival, then decode.
func (c *Comm) openRequest(e envelope) (RPCRequest, error) {
	c.clock().AdvanceTo(e.arrival)
	req, err := decodeRequest(&c.w.pool, e.data)
	req.Client = e.src
	return req, err
}

// SendReply ships rep to rank dst on tag, billed like SendRequest. It
// departs no earlier than rep.Ready, and the sender's clock does not wait
// for it.
func (c *Comm) SendReply(dst, tag int, rep *RPCReply) error {
	if err := userTag("SendReply", tag); err != nil {
		return err
	}
	sim := int64(rpcRepHeaderWire) + c.w.machine.Scale(int64(len(rep.Data)))
	return c.sendStaged(dst, tag, encodeReply(&c.w.pool, rep), netsim.TwoSided, sim, rep.Ready)
}

// RecvReply blocks for a reply from src on tag. The caller owns the reply:
// its Data is valid until Release.
func (c *Comm) RecvReply(src, tag int) (RPCReply, error) {
	buf, err := c.Recv(src, tag)
	if err != nil {
		return RPCReply{}, err
	}
	return decodeReply(&c.w.pool, buf)
}
