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
	// OpShutdown retires one client from a Serve loop; the server exits
	// once every client has sent it.
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
// impersonate another rank.
type RPCRequest struct {
	Op     RPCOp
	Client int
	Handle int32 // server-side file handle (collective open ordinal)
	Seq    int64 // per-client sequence number; orders staged writes
	Off    int64 // file offset (write, read)
	Len    int64 // request length (read); len(Data) for writes
	Data   []byte
}

// RPCReply is one server->client message. Code classifies a failure so
// the sender's typed error survives the string flattening across the wire
// (a reply string cannot be errors.Is-matched; the code can).
type RPCReply struct {
	OK   bool
	Code RPCErrCode
	Err  string
	Seq  int64
	Data []byte
}

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

// encodeRequest stages the request into a pooled buffer; the caller hands
// it to sendStaged, which owns it from then on.
func encodeRequest(r *RPCRequest) []byte {
	buf := getBuf(rpcReqHeaderWire + len(r.Data))
	buf[0] = byte(r.Op)
	binary.LittleEndian.PutUint32(buf[1:], uint32(r.Handle))
	binary.LittleEndian.PutUint64(buf[5:], uint64(r.Seq))
	binary.LittleEndian.PutUint64(buf[13:], uint64(r.Off))
	binary.LittleEndian.PutUint64(buf[21:], uint64(r.Len))
	binary.LittleEndian.PutUint32(buf[29:], uint32(len(r.Data)))
	copy(buf[rpcReqHeaderWire:], r.Data)
	return buf
}

func decodeRequest(buf []byte) (*RPCRequest, error) {
	if len(buf) < rpcReqHeaderWire {
		return nil, fmt.Errorf("mpi: rpc request truncated at %d bytes", len(buf))
	}
	r := &RPCRequest{
		Op:     RPCOp(buf[0]),
		Handle: int32(binary.LittleEndian.Uint32(buf[1:])),
		Seq:    int64(binary.LittleEndian.Uint64(buf[5:])),
		Off:    int64(binary.LittleEndian.Uint64(buf[13:])),
		Len:    int64(binary.LittleEndian.Uint64(buf[21:])),
	}
	n := int(binary.LittleEndian.Uint32(buf[29:]))
	if n != len(buf)-rpcReqHeaderWire {
		return nil, fmt.Errorf("mpi: rpc request payload %d bytes, header says %d",
			len(buf)-rpcReqHeaderWire, n)
	}
	if n > 0 {
		r.Data = buf[rpcReqHeaderWire:]
	}
	return r, nil
}

// encodeReply stages the reply into a pooled buffer; see encodeRequest.
func encodeReply(r *RPCReply) []byte {
	errStr := r.Err
	if len(errStr) > rpcMaxErr {
		errStr = errStr[:rpcMaxErr]
	}
	buf := getBuf(rpcRepHeaderWire + len(errStr) + len(r.Data))
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

func decodeReply(buf []byte) (*RPCReply, error) {
	if len(buf) < rpcRepHeaderWire {
		return nil, fmt.Errorf("mpi: rpc reply truncated at %d bytes", len(buf))
	}
	r := &RPCReply{
		OK:   buf[0] != 0,
		Code: RPCErrCode(buf[1]),
		Seq:  int64(binary.LittleEndian.Uint64(buf[2:])),
	}
	errLen := int(binary.LittleEndian.Uint16(buf[10:]))
	dataLen := int(binary.LittleEndian.Uint32(buf[12:]))
	if rpcRepHeaderWire+errLen+dataLen != len(buf) {
		return nil, fmt.Errorf("mpi: rpc reply %d bytes, header says %d+%d",
			len(buf)-rpcRepHeaderWire, errLen, dataLen)
	}
	r.Err = string(buf[rpcRepHeaderWire : rpcRepHeaderWire+errLen])
	if dataLen > 0 {
		r.Data = buf[rpcRepHeaderWire+errLen:]
	}
	return r, nil
}

// SendRequest ships req to rank dst on tag. The header is billed at
// metadata scale and the payload at the machine's byte scale, so bulk
// writes pay for their data while control messages stay cheap.
func (c *Comm) SendRequest(dst, tag int, req *RPCRequest) error {
	sim := int64(rpcReqHeaderWire) + c.w.machine.Scale(int64(len(req.Data)))
	return c.sendStaged(dst, tag, encodeRequest(req), netsim.TwoSided, sim)
}

// RecvRequest blocks for the next request from src (AnySource for any
// client) on tag, advancing the clock to its arrival. Client is filled
// from the envelope source.
func (c *Comm) RecvRequest(src, tag int) (*RPCRequest, error) {
	e, err := c.w.ranks[c.rank].box.take(src, tag, c.abortedErr)
	if err != nil {
		return nil, err
	}
	c.clock().AdvanceTo(e.arrival)
	req, err := decodeRequest(e.data)
	if err != nil {
		return nil, err
	}
	req.Client = e.src
	return req, nil
}

// TryRecvRequest is RecvRequest without blocking: it returns the next
// matching request if one is already buffered, or ok == false immediately.
// A scheduler loop uses it to drain queued work whenever no new request
// has arrived, without ever parking while the queue is non-empty.
func (c *Comm) TryRecvRequest(src, tag int) (*RPCRequest, bool, error) {
	if err := c.abortedErr(); err != nil {
		return nil, false, err
	}
	e, ok := c.w.ranks[c.rank].box.tryTake(src, tag)
	if !ok {
		return nil, false, nil
	}
	c.clock().AdvanceTo(e.arrival)
	req, err := decodeRequest(e.data)
	if err != nil {
		return nil, false, err
	}
	req.Client = e.src
	return req, true, nil
}

// SendReply ships rep to rank dst on tag, billed like SendRequest.
func (c *Comm) SendReply(dst, tag int, rep *RPCReply) error {
	sim := int64(rpcRepHeaderWire) + c.w.machine.Scale(int64(len(rep.Data)))
	return c.sendStaged(dst, tag, encodeReply(rep), netsim.TwoSided, sim)
}

// RecvReply blocks for a reply from src on tag.
func (c *Comm) RecvReply(src, tag int) (*RPCReply, error) {
	buf, err := c.Recv(src, tag)
	if err != nil {
		return nil, err
	}
	return decodeReply(buf)
}

// Serve runs a request loop on tag until all clients shut down: each
// request charges perReq of service time before the handler runs, and an
// OpShutdown retires its sender. Handlers reply themselves (or not — the
// delegation write path is fire-and-forget); a handler error aborts the
// loop and is returned.
func (c *Comm) Serve(tag, clients int, perReq simtime.Duration, handler func(*RPCRequest) error) error {
	for remaining := clients; remaining > 0; {
		req, err := c.RecvRequest(AnySource, tag)
		if err != nil {
			return err
		}
		c.clock().Advance(perReq)
		if req.Op == OpShutdown {
			remaining--
			continue
		}
		if err := handler(req); err != nil {
			return fmt.Errorf("mpi: serve tag %d: %s from rank %d: %w", tag, req.Op, req.Client, err)
		}
	}
	return nil
}
