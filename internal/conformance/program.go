// Package conformance is the randomized differential testing harness for
// the repository's three I/O engines. The paper's claim is transparency:
// any sequence of POSIX-like per-piece accesses through TCIO must produce
// bytes identical to independent MPI-IO and to OCIO's two-phase collective
// path. This package generates seed-deterministic workload programs —
// random rank counts, geometries, interleaved/strided/rewriting read and
// write patterns, and random library knobs including demand population,
// delegation, the journal and chaos fault rules — executes each program through all
// three engines plus an in-memory ground-truth model, and diffs final file bytes,
// read-back bytes, stats-accounting identities, and trace invariants. On
// divergence the failing program is shrunk by delta debugging to a minimal
// repro and serialized to testdata/corpus/ as a replayable golden case.
// A mutation smoke gate (internal/mutate, `conformance_mutants` build tag)
// proves the oracles have teeth. See DESIGN.md §5e.
//
// The harness deliberately avoids the extent algebra and the engines' own
// helpers for its model and oracles: programs are small, so ground truth is
// a dense byte image and validation uses dense per-byte ownership maps.
// A mutant armed inside package extent therefore cannot corrupt the oracle
// that is supposed to catch it.
package conformance

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
)

// Op is one application I/O call: rank writes (or reads) Len bytes at file
// offset Off. For writes, ID keys the deterministic payload generator, so
// every write op carries globally distinguishable bytes and rewrites are
// detectable byte-for-byte. For reads, ID is unused.
type Op struct {
	Rank int   `json:"rank"`
	Off  int64 `json:"off"`
	Len  int64 `json:"len"`
	ID   int64 `json:"id,omitempty"`
}

// End returns the exclusive upper bound of the op's byte range.
func (o Op) End() int64 { return o.Off + o.Len }

// Round is one synchronization epoch of a program: the ops inside a round
// are issued in slice order (which preserves each rank's program order),
// and a collective boundary — tcio Flush, one OCIO WriteAll/ReadAll —
// separates consecutive rounds.
type Round struct {
	Ops []Op `json:"ops"`
}

// Knobs is the library configuration a program runs under, spanning all
// three engines plus the chaos rules.
type Knobs struct {
	// TCIO configuration (see tcio.Config).
	DisableLevel1  bool `json:"disable_level1,omitempty"`
	DemandPopulate bool `json:"demand_populate,omitempty"`
	// CoresPerNode overrides the simulated machine's rank placement
	// (0 = the default testbed). Class 4 draws small values so several
	// ranks share a node.
	CoresPerNode int `json:"cores_per_node,omitempty"`

	// Delegation tier (class 6). Files > 0 additionally routes the program
	// through internal/delegate with that many concurrently open files;
	// ServerRanks carves that many dedicated server ranks out of Procs
	// (0 = the same files through tcio directly).
	ServerRanks int `json:"server_ranks,omitempty"`
	Files       int `json:"files,omitempty"`

	// Crash class (class 7). Journal arms tcio's journaled-epoch tier;
	// CrashKills is the number of simulated crash instants the checker
	// replays and recovers per program. CrashKills requires Journal, which
	// the delegation tier rejects with servers: the committed-prefix crash
	// model assumes every epoch commits before any data-file store starts.
	Journal    bool `json:"journal,omitempty"`
	CrashKills int  `json:"crash_kills,omitempty"`

	// ViewRead makes vanilla MPI-IO read each round through the round's
	// file view in one independent call instead of one call per op. Its
	// JSON name is the data-sieving knob's it replaced, so corpus programs
	// replay unedited.
	ViewRead bool `json:"sieving,omitempty"`

	// Chaos rules: ChaosSeed == 0 disarms injection entirely. Probabilities
	// apply to the OST read/write RPC and one-sided put sites.
	ChaosSeed    int64   `json:"chaos_seed,omitempty"`
	OSTWriteProb float64 `json:"ost_write_prob,omitempty"`
	OSTReadProb  float64 `json:"ost_read_prob,omitempty"`
	WinPutProb   float64 `json:"win_put_prob,omitempty"`
}

// Program is one generated workload: the geometry of the file and the
// level-2 buffers, the library knobs, and the write and read rounds every
// engine executes. Programs are plain data — JSON round-trippable — so
// shrunk repros replay from testdata/corpus/.
type Program struct {
	Seed        int64 `json:"seed"`
	Procs       int   `json:"procs"`
	SegmentSize int64 `json:"segment_size"`
	NumSegments int   `json:"num_segments"`
	FileBytes   int64 `json:"file_bytes"`
	StripeSize  int64 `json:"stripe_size"`
	StripeCount int   `json:"stripe_count"`
	Knobs       Knobs `json:"knobs"`

	WriteRounds []Round `json:"write_rounds"`
	ReadRounds  []Round `json:"read_rounds"`
}

// Capacity is the level-2 address bound: P * NumSegments * SegmentSize.
func (p *Program) Capacity() int64 {
	return int64(p.Procs) * int64(p.NumSegments) * p.SegmentSize
}

// Clients is the number of application ranks: Procs minus the delegation
// servers withdrawn from the communicator. Every op rank must fall below
// it — server ranks never run application code.
func (p *Program) Clients() int { return p.Procs - p.Knobs.ServerRanks }

// splitmix64 is the payload byte mixer (same construction the fault
// injector uses for its rolls; reimplemented here so the oracle does not
// depend on code under test).
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// payloadByte is the deterministic content generator: byte i of write op id
// under program seed. Distinct (seed, id, i) give effectively independent
// bytes, so a lost rewrite, a swapped run, or a one-byte shift all change
// the image.
func payloadByte(seed, id, i int64) byte {
	return byte(splitmix64(uint64(seed)*0x9E3779B97F4A7C15 ^ uint64(id)<<20 ^ uint64(i)))
}

// Payload materializes a write op's bytes.
func (p *Program) Payload(op Op) []byte {
	buf := make([]byte, op.Len)
	for i := range buf {
		buf[i] = payloadByte(p.Seed, op.ID, int64(i))
	}
	return buf
}

// Truth computes the ground-truth file image by applying every write round
// in order to a dense byte array. Within a round, ops apply in slice order;
// because cross-rank write sets are disjoint (Validate enforces it), only
// each rank's own program order matters, and slice order preserves it.
func (p *Program) Truth() []byte {
	img := make([]byte, p.FileBytes)
	for _, round := range p.WriteRounds {
		for _, op := range round.Ops {
			for i := int64(0); i < op.Len; i++ {
				img[op.Off+i] = payloadByte(p.Seed, op.ID, i)
			}
		}
	}
	return img
}

// CoverIDs maps every file byte to the ID of the write op whose bytes land
// there in the ground truth (-1 for never-written bytes) — the placement
// view of Truth, used to cross-check the model against independently
// derived workload formulas.
func (p *Program) CoverIDs() []int64 {
	ids := make([]int64, p.FileBytes)
	for i := range ids {
		ids[i] = -1
	}
	for _, round := range p.WriteRounds {
		for _, op := range round.Ops {
			for i := int64(0); i < op.Len; i++ {
				ids[op.Off+i] = op.ID
			}
		}
	}
	return ids
}

// TruthSHA is the hex SHA-256 of the ground-truth image.
func (p *Program) TruthSHA() string {
	sum := sha256.Sum256(p.Truth())
	return hex.EncodeToString(sum[:])
}

// maxOSTs mirrors pfs.DefaultConfig's OST count, bounding StripeCount.
const maxOSTs = 30

// Validate checks that the program is well-formed and — critically — that
// no two ranks ever write the same byte. Cross-rank overlapping writes have
// no defined winner in any of the engines (there is no global order between
// ranks), so such a program would be nondeterministic by construction; the
// generator only emits disjoint write sets and every shrinking step must
// preserve the property. The check is a dense per-byte ownership map,
// independent of the (mutable-under-mutation) extent algebra.
func (p *Program) Validate() error {
	switch {
	case p.Procs < 1:
		return fmt.Errorf("conformance: %d procs", p.Procs)
	case p.SegmentSize < 1:
		return fmt.Errorf("conformance: segment size %d", p.SegmentSize)
	case p.NumSegments < 1:
		return fmt.Errorf("conformance: %d segments", p.NumSegments)
	case p.FileBytes < 0:
		return fmt.Errorf("conformance: file bytes %d", p.FileBytes)
	case p.FileBytes > p.Capacity():
		return fmt.Errorf("conformance: file bytes %d exceed capacity %d", p.FileBytes, p.Capacity())
	case p.StripeSize < 1:
		return fmt.Errorf("conformance: stripe size %d", p.StripeSize)
	case p.StripeCount < 1 || p.StripeCount > maxOSTs:
		return fmt.Errorf("conformance: stripe count %d", p.StripeCount)
	case p.Knobs.Files < 0 || p.Knobs.CoresPerNode < 0 || p.Knobs.CrashKills < 0:
		return fmt.Errorf("conformance: negative harness knob: %+v", p.Knobs)
	case p.Knobs.CrashKills > 0 && !p.Knobs.Journal:
		return fmt.Errorf("conformance: %d crash kills without journal", p.Knobs.CrashKills)
	}
	// Which library knob values are legal is the libraries' call: normalize
	// the very configurations the engines open with, and report their error.
	// With no server ranks the delegation engine opens tcio alone.
	if p.Knobs.ServerRanks != 0 {
		if _, err := p.delegateConfig(nil).Normalize(p.Procs, p.StripeSize); err != nil {
			return err
		}
	}
	if _, err := p.tcioConfig(nil).Normalize(p.StripeSize); err != nil {
		return err
	}
	owner := make([]int8, p.FileBytes) // 0 = unwritten, else rank+1
	for ri, round := range p.WriteRounds {
		for oi, op := range round.Ops {
			if err := p.checkOp("write", ri, oi, op); err != nil {
				return err
			}
			for i := op.Off; i < op.End(); i++ {
				if owner[i] != 0 && owner[i] != int8(op.Rank+1) {
					return fmt.Errorf("conformance: byte %d written by both rank %d and rank %d",
						i, owner[i]-1, op.Rank)
				}
				owner[i] = int8(op.Rank + 1)
			}
		}
	}
	for ri, round := range p.ReadRounds {
		for oi, op := range round.Ops {
			if err := p.checkOp("read", ri, oi, op); err != nil {
				return err
			}
		}
	}
	return nil
}

func (p *Program) checkOp(kind string, ri, oi int, op Op) error {
	switch {
	case op.Rank < 0 || op.Rank >= p.Procs:
		return fmt.Errorf("conformance: %s round %d op %d: rank %d of %d", kind, ri, oi, op.Rank, p.Procs)
	case op.Rank >= p.Clients():
		return fmt.Errorf("conformance: %s round %d op %d: rank %d is a server rank (%d clients)",
			kind, ri, oi, op.Rank, p.Clients())
	case op.Off < 0 || op.Len < 0 || op.End() > p.FileBytes:
		return fmt.Errorf("conformance: %s round %d op %d: [%d,%d) outside file of %d",
			kind, ri, oi, op.Off, op.End(), p.FileBytes)
	}
	return nil
}

// Counts reports the number and total bytes of a rank's ops in the given
// rounds — the expectations behind the per-rank stats oracles.
func countOps(rounds []Round, rank int) (n, bytes int64) {
	for _, round := range rounds {
		for _, op := range round.Ops {
			if op.Rank == rank {
				n++
				bytes += op.Len
			}
		}
	}
	return n, bytes
}

// Ops reports the total write and read op counts of the program.
func (p *Program) Ops() (writes, reads int) {
	for _, r := range p.WriteRounds {
		writes += len(r.Ops)
	}
	for _, r := range p.ReadRounds {
		reads += len(r.Ops)
	}
	return writes, reads
}

// Marshal renders the program as indented JSON (the corpus format).
func (p *Program) Marshal() ([]byte, error) {
	blob, err := json.MarshalIndent(p, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(blob, '\n'), nil
}

// Unmarshal parses a corpus JSON program.
func Unmarshal(blob []byte) (*Program, error) {
	var p Program
	if err := json.Unmarshal(blob, &p); err != nil {
		return nil, fmt.Errorf("conformance: corpus JSON: %w", err)
	}
	return &p, nil
}

// Digest is a short stable fingerprint of the program's canonical JSON,
// used to label corpus files and summary lines.
func (p *Program) Digest() string {
	blob, err := json.Marshal(p)
	if err != nil {
		return "invalid"
	}
	sum := sha256.Sum256(blob)
	return hex.EncodeToString(sum[:6])
}

// Clone deep-copies the program (shrinking mutates candidates in place).
func (p *Program) Clone() *Program {
	q := *p
	q.WriteRounds = cloneRounds(p.WriteRounds)
	q.ReadRounds = cloneRounds(p.ReadRounds)
	return &q
}

func cloneRounds(rounds []Round) []Round {
	out := make([]Round, len(rounds))
	for i, r := range rounds {
		out[i].Ops = append([]Op(nil), r.Ops...)
	}
	return out
}
