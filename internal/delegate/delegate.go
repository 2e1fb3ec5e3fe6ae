// Package delegate adds an I/O delegation tier in front of tcio: a
// configurable number of ranks leave the application and become dedicated
// I/O servers, each owning a block-cyclic slice of every open file's
// offset space (its file domains). Client ranks ship writes to the owning
// server over a typed request/reply protocol (mpi.RPCRequest); servers
// stage them per domain block and drain one coalesced batch per flush
// epoch, so many small strided client writes reach the file system as few
// long runs — the delegation counterpart of the paper's two-level
// buffering, with the aggregation moved off the compute ranks entirely.
//
// Determinism. Request arrival order at a server races (clients run as
// goroutines), so the server never applies writes in arrival order: it
// stages them and, when a flush closes the epoch, sorts the staged
// records by (client rank, per-client sequence) before applying
// last-write-wins into the domain blocks. The drained batch and the final
// file image are therefore pure functions of the program, independent of
// scheduling. Flow control is a per-(client, server) credit window of
// queueDepth outstanding writes — admission control that bounds server
// staging without timestamps.
//
// With ServerRanks == 0 the tier is a pass-through: Open returns a handle
// backed directly by tcio.Open with the caller's Config, every rank is a
// client, and the run is bit-identical to not using the package at all
// (pinned by TestDelegateDegeneratePassThrough).
package delegate

import (
	"fmt"

	"github.com/tcio/tcio/internal/extent"
	"github.com/tcio/tcio/internal/mpi"
	"github.com/tcio/tcio/internal/simtime"
	"github.com/tcio/tcio/internal/tcio"
)

// Message tags of the delegation protocol, in the user tag space but high
// enough not to collide with application tags.
const (
	tagRequest = 1<<20 + iota // client -> server requests
	tagCredit                 // server -> client write-window grants
	tagReply                  // server -> client flush acks and read data
)

// serverPerReq is the service time a server charges per request before
// handling it — the cost of the admission queue's bookkeeping.
const serverPerReq = 1 * simtime.Microsecond

// queueDepth is the credit window of unacknowledged writes per (client, server).
const queueDepth = 8

// Config parameterizes the tier.
type Config struct {
	// ServerRanks is the number of ranks withdrawn from the application
	// to run as dedicated I/O servers. 0 disables the tier entirely.
	ServerRanks int
	// ServerCacheBlocks is each server's hot-block cache capacity in
	// domain blocks: repeat and cross-client reads of a cached block are
	// served from server memory instead of the file system. 0 disables
	// the cache, leaving the read path's request identity bit-identical
	// to the uncached tier (pinned by TestDelegateReadPathDisarmed).
	ServerCacheBlocks int
	// ReadQuantum is the deficit-round-robin quantum, in bytes, for fair
	// read scheduling across client ranks: servers queue read requests
	// and drain them between writes, granting each client quantum bytes
	// of deficit per round, so one client's large sieved reads cannot
	// starve another's small reads. 0 serves each read inline in arrival
	// order, exactly as before.
	ReadQuantum int64
	// CollectiveRead turns delegated reads into server-merged intent
	// epochs (readepoch.go): clients queue read pieces, Fetch and Close are
	// collective points that ship each server one intent, and a server
	// fetches the union of requested blocks once. It needs servers, so
	// Normalize rejects it with ServerRanks == 0. Off (the default) ships
	// every piece as its own read request.
	CollectiveRead bool
	// TCIO configures the pass-through engine (ServerRanks == 0) and
	// supplies the segment geometry the file domains derive from. Servers
	// keep no journal, so Normalize rejects TCIO.Journal with servers.
	TCIO tcio.Config
	// Collect, when non-nil, receives every server's final counters.
	Collect *Collector
}

// Normalize returns the configuration a procs-rank communicator would run
// with — when the tier is armed, TCIO normalized against stripeSize — or
// the error Run reports for it. The pass-through configuration
// (ServerRanks == 0) leaves TCIO to tcio.Open.
func (cfg Config) Normalize(procs int, stripeSize int64) (Config, error) {
	switch {
	case cfg.ServerRanks < 0 || cfg.ServerRanks >= procs:
		return cfg, fmt.Errorf("delegate: %d server ranks of %d", cfg.ServerRanks, procs)
	case cfg.ServerCacheBlocks < 0:
		return cfg, fmt.Errorf("delegate: server cache blocks %d", cfg.ServerCacheBlocks)
	case cfg.ReadQuantum < 0:
		return cfg, fmt.Errorf("delegate: read quantum %d", cfg.ReadQuantum)
	case cfg.CollectiveRead && cfg.ServerRanks == 0:
		return cfg, fmt.Errorf("delegate: collective read without server ranks")
	case cfg.TCIO.Journal && cfg.ServerRanks > 0:
		// Servers write the data file themselves and keep no journal.
		return cfg, fmt.Errorf("delegate: journal with %d server ranks", cfg.ServerRanks)
	case cfg.ServerRanks == 0:
		return cfg, nil
	}
	var err error
	cfg.TCIO, err = cfg.TCIO.Normalize(stripeSize)
	return cfg, err
}

// Run executes body on every client rank of c, with cfg.ServerRanks ranks
// (chosen by cluster.SpreadServers) serving the delegation protocol
// instead. All ranks of the communicator must call Run collectively. When
// body returns on a client, the client releases its servers; Run returns
// on servers once every client has done so. With ServerRanks == 0 every
// rank is a client and body runs everywhere.
func Run(c *mpi.Comm, cfg Config, body func(*Tier) error) error {
	cfg, err := cfg.Normalize(c.Size(), c.FS().Config().StripeSize)
	if err != nil {
		return err
	}
	if cfg.ServerRanks == 0 {
		// Pass-through: no protocol, no placement, no extra collectives —
		// the degenerate configuration must stay bit-identical to direct
		// tcio use.
		return body(&Tier{c: c, cfg: cfg, clientIdx: c.Rank(), clients: c.Size()})
	}
	servers := c.Machine().SpreadServers(c.Size(), cfg.ServerRanks)
	// The owner map: block-cyclic file domains of four tcio segments, so a
	// block spans several segment drains' worth of coalescing opportunity.
	domains := extent.Layout{P: len(servers), SegSize: 4 * cfg.TCIO.SegmentSize}
	// A server rank serves. A client finds its index among the client ranks
	// (the ranks not serving), so work decomposition over clients needs no
	// communication.
	idx := c.Rank()
	for _, s := range servers {
		if s == c.Rank() {
			return serve(c, cfg, servers, domains)
		}
		if s < c.Rank() {
			idx--
		}
	}
	t := &Tier{
		c:         c,
		cfg:       cfg,
		servers:   servers,
		domains:   domains,
		clientIdx: idx,
		clients:   c.Size() - len(servers),
		seqs:      make([]int64, len(servers)),
		unacked:   make([]int, len(servers)),
	}
	if err := body(t); err != nil {
		return err
	}
	return t.shutdown()
}

// IsDelegated reports whether the tier runs the delegation protocol
// (false in ServerRanks == 0 pass-through).
func (t *Tier) IsDelegated() bool { return len(t.servers) > 0 }
