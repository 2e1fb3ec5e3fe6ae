package conformance

// The differential oracles. Check runs one program through all three
// engines and diffs every observable against the in-memory ground truth
// and against the invariants the design guarantees:
//
//   - final file bytes == Truth() for every engine (padded with zeros
//     past the written extent — the file systems are sparse);
//   - every read op observed exactly the truth bytes (verified inside
//     the engine drivers, surfaced here as read-phase errors);
//   - tcio call counters match the program (Writes/Reads/Bytes*);
//   - the file system's own write count equals the ranks' FSWrites sum;
//   - population counts match the mode (preload: per-rank slot walk;
//     demand: one population per demanded segment, summed — the split
//     across ranks is scheduling-dependent);
//   - golden-trace causality: no segment drains to the file system
//     before its first level-1 flush arrived.
//
// The Summary line is deliberately built only from scheduling-independent
// quantities, so two runs of the same seed must produce identical lines
// (internal/bench's TestHostOrderRatchet compares them under jitter).

import (
	"fmt"
	"strings"

	"github.com/tcio/tcio/internal/trace"
)

// Divergence is one oracle violation.
type Divergence struct {
	Engine string `json:"engine"` // "tcio", "ocio", "vanilla", or "program"
	Kind   string `json:"kind"`   // short category: "image", "stats", ...
	Detail string `json:"detail"`
}

func (d Divergence) String() string {
	return fmt.Sprintf("%s/%s: %s", d.Engine, d.Kind, d.Detail)
}

// Outcome is the result of checking one program.
type Outcome struct {
	Program     *Program
	Divergences []Divergence
	// Summary is one deterministic line describing the run — identical
	// across repeated executions of the same seed.
	Summary string
}

// Failed reports whether any oracle flagged a divergence.
func (o *Outcome) Failed() bool { return len(o.Divergences) > 0 }

// Check executes the program on every engine and applies all oracles.
func Check(p *Program) *Outcome {
	o := &Outcome{Program: p}
	if err := p.Validate(); err != nil {
		o.diverge("program", "invalid", err.Error())
		o.Summary = fmt.Sprintf("seed=%d invalid: %v", p.Seed, err)
		return o
	}
	truth := p.Truth()

	tc := runTCIO(p, truth)
	oc := runOCIO(p, truth)
	va := runVanilla(p, truth)

	for _, run := range []*engineRun{tc, oc, va} {
		o.checkCommon(run, truth)
	}
	o.checkTCIOStats(p, tc)
	o.checkTrace(tc)
	var dl *delegateRun
	if p.Knobs.Files > 0 {
		dl = runDelegate(p, truth)
		o.checkDelegate(p, dl, truth)
	}
	var cr *crashRun
	if p.Knobs.CrashKills > 0 {
		cr = runCrash(p)
		o.checkCrash(p, cr)
	}
	o.Summary = p.summarize(tc, oc, va, dl, cr, len(o.Divergences))
	return o
}

func (o *Outcome) diverge(engine, kind, format string, args ...interface{}) {
	o.Divergences = append(o.Divergences, Divergence{
		Engine: engine, Kind: kind, Detail: fmt.Sprintf(format, args...),
	})
}

// checkCommon applies the engine-independent oracles: clean execution and
// final file bytes.
func (o *Outcome) checkCommon(run *engineRun, truth []byte) {
	if run.writeErr != "" {
		o.diverge(run.name, "write-error", "%s", run.writeErr)
		return // no file image to judge
	}
	if run.readErr != "" {
		o.diverge(run.name, "read-error", "%s", run.readErr)
	}
	if run.fileSize > int64(len(truth)) {
		o.diverge(run.name, "image", "file grew to %d bytes, program writes end at %d",
			run.fileSize, len(truth))
	}
	n := int64(len(truth))
	if int64(len(run.image)) > n {
		n = int64(len(run.image))
	}
	for i := int64(0); i < n; i++ {
		var got, want byte
		if i < int64(len(run.image)) {
			got = run.image[i]
		}
		if i < int64(len(truth)) {
			want = truth[i]
		}
		if got != want {
			o.diverge(run.name, "image", "file byte %d = %#x, truth %#x", i, got, want)
			return
		}
	}
}

// checkTCIOStats applies the counter oracles to the tcio run.
func (o *Outcome) checkTCIOStats(p *Program, run *engineRun) {
	if run.writeErr == "" {
		var fsSum, jrnSum int64
		for rank, s := range run.wStats {
			wantN, wantBytes := countOps(p.WriteRounds, rank)
			if s.Writes != wantN || s.BytesWritten != wantBytes {
				o.diverge("tcio", "stats", "rank %d counted %d writes/%d bytes, program has %d/%d",
					rank, s.Writes, s.BytesWritten, wantN, wantBytes)
			}
			if !p.Knobs.Journal && (s.JournalEpochs != 0 || s.JournalAppends != 0 ||
				s.JournalBytes != 0 || s.JournalCommits != 0) {
				o.diverge("tcio", "stats", "rank %d journaled %d epochs (%d appends) with the journal disarmed",
					rank, s.JournalEpochs, s.JournalAppends)
			}
			if p.Knobs.Journal && s.JournalCommits != s.JournalEpochs {
				// Every appended epoch batch is sealed by its own commit
				// marker — the identity the skip-commit-marker mutant breaks.
				o.diverge("tcio", "stats", "rank %d sealed %d of %d journal epochs",
					rank, s.JournalCommits, s.JournalEpochs)
			}
			fsSum += s.FSWrites
			jrnSum += s.JournalAppends
		}
		// Journal appends go through the same charged file system, so the
		// write-count identity gains a journal term (the truncate RPC is
		// control traffic and deliberately uncounted).
		if fsSum+jrnSum != run.fsWrites {
			o.diverge("tcio", "stats", "ranks report %d FSWrites + %d journal appends, file system served %d",
				fsSum, jrnSum, run.fsWrites)
		}
	}
	if run.readErr != "" || run.writeErr != "" || run.rStats == nil {
		return
	}
	var popSum int64
	for rank, s := range run.rStats {
		wantN, wantBytes := countOps(p.ReadRounds, rank)
		if s.Reads != wantN || s.BytesRead != wantBytes {
			o.diverge("tcio", "stats", "rank %d counted %d reads/%d bytes, program has %d/%d",
				rank, s.Reads, s.BytesRead, wantN, wantBytes)
		}
		if !p.Knobs.DemandPopulate {
			want := expectedPreload(p, rank, run.fileSize)
			if s.Populations != want {
				o.diverge("tcio", "stats", "rank %d preloaded %d segments, want %d",
					rank, s.Populations, want)
			}
		}
		popSum += s.Populations
	}
	if p.Knobs.DemandPopulate {
		if want := expectedDemandPopulations(p, run.fileSize); popSum != want {
			o.diverge("tcio", "stats", "ranks populated %d segments on demand, want %d", popSum, want)
		}
	}
}

// expectedPreload mirrors preloadAll: rank r loads its slots in order and
// stops at the first whose base offset is at or past the file size.
func expectedPreload(p *Program, rank int, fileSize int64) int64 {
	var n int64
	for slot := 0; slot < p.NumSegments; slot++ {
		base := (int64(slot)*int64(p.Procs) + int64(rank)) * p.SegmentSize
		if base >= fileSize {
			break
		}
		n++
	}
	return n
}

// expectedDemandPopulations counts the distinct segments the read program
// demands that overlap the written file — each is populated exactly once,
// by whichever rank gets there first.
func expectedDemandPopulations(p *Program, fileSize int64) int64 {
	segs := make(map[int64]bool)
	for _, round := range p.ReadRounds {
		for _, op := range round.Ops {
			if op.Len == 0 {
				continue
			}
			for seg := op.Off / p.SegmentSize; seg*p.SegmentSize < op.End(); seg++ {
				if seg*p.SegmentSize < fileSize {
					segs[seg] = true
				}
			}
		}
	}
	return int64(len(segs))
}

// checkTrace verifies drain-after-flush causality on the tcio trace: no
// file system drain of a segment may depart before the segment's first
// level-1 flush arrived at the window.
func (o *Outcome) checkTrace(run *engineRun) {
	if run.writeErr != "" {
		return
	}
	firstFlush := make(map[int64]trace.Event)
	for _, ev := range run.events {
		if ev.Kind != trace.KindFlush {
			continue
		}
		var seg int64
		if _, err := fmt.Sscanf(ev.Detail, "seg=%d", &seg); err != nil {
			continue
		}
		if first, ok := firstFlush[seg]; !ok || ev.Start < first.Start {
			firstFlush[seg] = ev
		}
	}
	for _, ev := range run.events {
		if ev.Kind != trace.KindDrain {
			continue
		}
		var seg int64
		if _, err := fmt.Sscanf(ev.Detail, "seg=%d", &seg); err != nil {
			continue
		}
		first, ok := firstFlush[seg]
		if !ok {
			o.diverge("tcio", "trace", "segment %d drained (%q) but no flush ever shipped to it",
				seg, ev.Detail)
			return
		}
		if ev.Start < first.Start {
			o.diverge("tcio", "trace", "segment %d drain departs at %v, before its first flush at %v",
				seg, ev.Start, first.Start)
			return
		}
	}
}

// summarize renders the deterministic one-line fingerprint of the run.
func (p *Program) summarize(tc, oc, va *engineRun, dl *delegateRun, cr *crashRun, nDiv int) string {
	var b strings.Builder
	writes, reads := p.Ops()
	fmt.Fprintf(&b, "seed=%d class=%d P=%d seg=%dx%d file=%d stripe=%dx%d wops=%d rops=%d truth=%.12s",
		p.Seed, int(((p.Seed%8)+8)%8), p.Procs, p.SegmentSize, p.NumSegments,
		p.FileBytes, p.StripeSize, p.StripeCount, writes, reads, p.TruthSHA())

	var pops, fsw int64
	for _, s := range tc.rStats {
		pops += s.Populations
	}
	for _, s := range tc.wStats {
		fsw += s.FSWrites
	}
	fmt.Fprintf(&b, " tcio[fs=%d pop=%d ret=%d inj=%s%s]",
		fsw, pops, tc.retries, orDash(tc.injected), phaseMark(tc))
	if dl != nil {
		// Staged-record and batched-run totals are sorted-epoch quantities
		// (DESIGN.md §2e): deterministic despite racy request arrival.
		var staged, runs int64
		for _, s := range dl.servers {
			staged += s.StagedWrites
			runs += s.BatchedRuns
		}
		mark := ""
		if dl.err != "" {
			mark = " err"
		}
		fmt.Fprintf(&b, " del[srv=%d files=%d staged=%d runs=%d fs=%d%s]",
			p.Knobs.ServerRanks, p.Knobs.Files, staged, runs, dl.fsWrites, mark)
		if len(dl.rservers) > 0 {
			// Read-phase totals are per-block quantities (first touch fills,
			// epoch unions are program-determined, the generator's cache
			// capacity rules out evictions), so hit/miss sums diff cleanly
			// even though which client triggers a fill races.
			var rreq, repoch, hit, miss, rfs int64
			for _, s := range dl.rservers {
				rreq += s.ReadReqs
				repoch += s.ReadEpochs
				hit += s.CacheHits
				miss += s.CacheMisses
				rfs += s.FSReads
			}
			fmt.Fprintf(&b, " dread[cache=%d quant=%d coll=%v req=%d epoch=%d hit=%d miss=%d fs=%d]",
				p.Knobs.ServerCacheBlocks, p.Knobs.ReadQuantum, p.Knobs.CollectiveRead,
				rreq, repoch, hit, miss, rfs)
		}
	}
	if p.Knobs.Journal {
		// Epoch/commit totals are collective-point quantities (journal
		// appends happen after the flush barrier, on state that is a pure
		// function of the program), so they diff cleanly; the kill verdicts
		// derive from the deterministic virtual-time log.
		var eps, commits int64
		for _, s := range tc.wStats {
			eps += s.JournalEpochs
			commits += s.JournalCommits
		}
		okKills := 0
		if cr != nil {
			okKills = cr.okKills
		}
		fmt.Fprintf(&b, " crash[kills=%d ok=%d epochs=%d commits=%d]",
			p.Knobs.CrashKills, okKills, eps, commits)
	}
	fmt.Fprintf(&b, " ocio[ret=%d inj=%s%s] van[ret=%d inj=%s%s]",
		oc.retries, orDash(oc.injected), phaseMark(oc),
		va.retries, orDash(va.injected), phaseMark(va))
	if nDiv == 0 {
		b.WriteString(" verdict=ok")
	} else {
		fmt.Fprintf(&b, " verdict=DIVERGE(%d)", nDiv)
	}
	return b.String()
}

func orDash(s string) string {
	if s == "" {
		return "-"
	}
	return s
}

// phaseMark flags failed phases in the summary ("" when both ran clean).
func phaseMark(run *engineRun) string {
	switch {
	case run.writeErr != "":
		return " werr"
	case run.readErr != "":
		return " rerr"
	default:
		return ""
	}
}
