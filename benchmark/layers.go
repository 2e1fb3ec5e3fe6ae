package main

// Per-layer metrics. They come from three places, and each name says
// which: the traced rep (span probes, the layers' own Stats(), the
// trace.Recorder, CPU/mutex/block profiles), micro-benchmarks (micro.go),
// and the untraced reps (the simtime.* determinism pair). They carry no
// bound: they explain an end-to-end move, they are not judged themselves.
//
// vt is virtual time on the world's makespan rank, read from Comm.Now()
// around the call; host is the host clock. A span-derived metric whose
// layer the workload never calls directly is not applicable: the table
// leaves it out, and the one-line summary an outside harness reads (which
// must carry every name) gives it as 0.

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"github.com/tcio/tcio/internal/mpi"
	"github.com/tcio/tcio/internal/netsim"
	"github.com/tcio/tcio/internal/pfs"
	"github.com/tcio/tcio/internal/simtime"
	"github.com/tcio/tcio/internal/trace"
)

// layerMetric declares one per-layer metric.
type layerMetric struct {
	name, unit, better string
}

// layerMetrics is every per-layer metric the benchmark can emit, in
// report order. BENCHMARK.json's per_layer list mirrors it (bench_test.go
// checks that it does).
var layerMetrics = []layerMetric{
	{"tcio.calls", "count", "lower"},
	{"tcio.open.vt_ms", "ms", "lower"},
	{"tcio.writeat.vt_ms", "ms", "lower"},
	{"tcio.flush.vt_ms", "ms", "lower"},
	{"tcio.readat.vt_ms", "ms", "lower"},
	{"tcio.fetch.vt_ms", "ms", "lower"},
	{"tcio.close.vt_ms", "ms", "lower"},
	{"tcio.writeat.vt_p50_ns", "ns", "lower"},
	{"tcio.writeat.vt_p99_ns", "ns", "lower"},
	{"tcio.writeat.vt_max_ns", "ns", "lower"},
	{"tcio.fetch.vt_p50_us", "us", "lower"},
	{"tcio.fetch.vt_max_us", "us", "lower"},
	{"tcio.close.vt_p50_us", "us", "lower"},
	{"tcio.close.vt_max_us", "us", "lower"},
	{"tcio.writeat.host_ns_per_call", "ns", "lower"},
	{"tcio.level1_flushes", "count", "lower"},
	{"tcio.coalesce_ratio", "ratio", "higher"},
	{"tcio.gets", "count", "lower"},
	{"tcio.populations", "count", "lower"},
	{"tcio.fs_writes", "count", "lower"},
	{"tcio.retries", "count", "lower"},
	{"tcio.lock_wait_ms", "ms", "lower"},
	{"tcio.put_issue_ms", "ms", "lower"},
	{"tcio.unlock_wait_ms", "ms", "lower"},
	{"tcio.ev.flush.vt_ms", "ms", "lower"},
	{"tcio.ev.drain.vt_ms", "ms", "lower"},
	{"tcio.ev.populate.vt_ms", "ms", "lower"},
	{"tcio.cpu_pct", "%", "lower"},

	{"mpi.barriers", "count", "lower"},
	{"mpi.barrier.vt_ms", "ms", "lower"},
	{"mpi.exit_skew_ms", "ms", "lower"},
	{"mpi.spawn_host_us_per_rank", "us", "lower"},
	{"mpi.pingpong_host_ns", "ns", "lower"},
	{"mpi.barrier_host_ns_per_rank", "ns", "lower"},
	{"mpi.put_host_ns", "ns", "lower"},
	{"mpi.alltoallv_host_us", "us", "lower"},
	{"mpi.cpu_pct", "%", "lower"},
	{"mpi.mutex_wait_ms", "ms", "lower"},
	{"mpi.block_wait_ms", "ms", "lower"},

	{"netsim.messages", "count", "lower"},
	{"netsim.MB", "MB", "lower"},
	{"netsim.onesided_msgs", "count", "lower"},
	{"netsim.twosided_msgs", "count", "lower"},
	{"netsim.congested_share", "ratio", "lower"},
	{"netsim.peak_overlap", "count", "lower"},
	{"netsim.setup_vt_ms", "ms", "lower"},
	{"netsim.cpu_pct", "%", "lower"},
	{"netsim.mutex_wait_ms", "ms", "lower"},

	{"pfs.reads", "count", "lower"},
	{"pfs.writes", "count", "lower"},
	{"pfs.read_MB", "MB", "lower"},
	{"pfs.written_MB", "MB", "lower"},
	{"pfs.avg_req_KB", "KB", "higher"},
	{"pfs.lock_conflicts", "count", "lower"},
	{"pfs.cache_hits", "count", "higher"},
	{"pfs.retries", "count", "lower"},
	{"pfs.write_vt_us_per_req", "us", "lower"},
	{"pfs.write_host_ns_per_req", "ns", "lower"},
	{"pfs.cpu_pct", "%", "lower"},
	{"pfs.mutex_wait_ms", "ms", "lower"},

	{"storage.write_extents_host_ns_per_req", "ns", "lower"},
	{"storage.cpu_pct", "%", "lower"},

	{"mpiio.calls", "count", "lower"},
	{"mpiio.setview.vt_ms", "ms", "lower"},
	{"mpiio.writeall.vt_ms", "ms", "lower"},
	{"mpiio.readall.vt_ms", "ms", "lower"},
	{"mpiio.writeat.vt_ms", "ms", "lower"},
	{"mpiio.readat.vt_ms", "ms", "lower"},
	{"mpiio.writeat.vt_p99_us", "us", "lower"},
	{"mpiio.retries", "count", "lower"},
	{"mpiio.cpu_pct", "%", "lower"},

	{"datatype.flatten_host_ns_per_seg", "ns", "lower"},
	{"datatype.cpu_pct", "%", "lower"},

	{"extent.coalesce_host_ns_per_run", "ns", "lower"},
	{"extent.sieveplan_host_ns_per_run", "ns", "lower"},
	{"extent.cpu_pct", "%", "lower"},

	{"delegate.write_phase.vt_ms", "ms", "lower"},
	{"delegate.cold_pass.vt_ms", "ms", "lower"},
	{"delegate.hot_pass.vt_ms", "ms", "lower"},
	{"delegate.read.vt_p50_us", "us", "lower"},
	{"delegate.read.vt_p99_us", "us", "lower"},
	{"delegate.read.vt_max_us", "us", "lower"},
	{"delegate.staged_writes", "count", "lower"},
	{"delegate.batched_runs", "count", "lower"},
	{"delegate.agg_factor", "ratio", "higher"},
	{"delegate.credit_stalls", "count", "lower"},
	{"delegate.cache_hit_ratio", "ratio", "higher"},
	{"delegate.cache_evictions", "count", "lower"},
	{"delegate.fs_reads", "count", "lower"},
	{"delegate.read_epochs", "count", "lower"},
	{"delegate.cpu_pct", "%", "lower"},

	{"art.dump.vt_ms", "ms", "lower"},
	{"art.restore.vt_ms", "ms", "lower"},
	{"art.pieces", "count", "lower"},
	{"art.piece_bytes_p50", "B", "higher"},
	{"art.encode_host_ns_per_tree", "ns", "lower"},
	{"art.cpu_pct", "%", "lower"},

	{"wal.encode_MBps", "MB/s", "higher"},
	{"wal.decode_MBps", "MB/s", "higher"},

	{"simtime.makespan_spread_pct", "%", "lower"},
	{"simtime.distinct_makespans", "count", "lower"},
	{"simtime.vt_unattributed_pct", "%", "lower"},
	{"simtime.acquire_host_ns", "ns", "lower"},
	{"simtime.cpu_pct", "%", "lower"},

	{"trace.events", "count", "lower"},
	{"trace.dropped", "count", "lower"},
	{"trace.record_host_ns", "ns", "lower"},
	{"trace.overhead_pct", "%", "lower"},

	{"runtime.cpu_pct", "%", "lower"},
	{"runtime.mallocs_per_call", "1/call", "lower"},
	{"runtime.alloc_B_per_call", "B/call", "lower"},
	{"runtime.gc_cycles", "count", "lower"},
	{"runtime.gc_pause_ms", "ms", "lower"},
	{"runtime.heap_peak_MB", "MB", "lower"},
	{"runtime.cpu_user_s", "s", "lower"},
	{"runtime.cpu_sys_s", "s", "lower"},
}

// cpuLayers are the packages whose CPU share is always reported, used or
// not: a bypassed layer reading ~0 is the point of the bypass workloads.
var cpuLayers = []string{"tcio", "mpi", "netsim", "pfs", "storage", "mpiio", "datatype", "extent", "delegate", "art", "simtime", "runtime"}

// layerSet collects emitted per-layer metrics against layerMetrics.
type layerSet struct {
	vals  map[string]metricValue
	units map[string]string
}

func newLayerSet() *layerSet {
	m := &layerSet{vals: map[string]metricValue{}, units: map[string]string{}}
	for _, lm := range layerMetrics {
		m.units[lm.name] = lm.unit
	}
	return m
}

// set emits one metric. An undeclared or repeated name is a bug in this
// program, caught by the toy-size test run.
func (m *layerSet) set(name string, v float64) {
	unit, ok := m.units[name]
	if !ok {
		panic("benchmark: undeclared per-layer metric " + name)
	}
	if _, dup := m.vals[name]; dup {
		panic("benchmark: per-layer metric emitted twice: " + name)
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	m.vals[name] = metricValue{Value: v, Unit: unit}
}

func ms(d simtime.Duration) float64 { return float64(d) / 1e6 }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// makespanRank is the rank whose final clock is the world's makespan.
func makespanRank(rep mpi.Report) int {
	best := 0
	for r, t := range rep.RankTimes {
		if t > rep.RankTimes[best] {
			best = r
		}
	}
	return best
}

// spanAgg aggregates the spans of one (layer, name) over a traced rep.
type spanAgg struct {
	count int64            // calls, all ranks
	vt    simtime.Duration // busy virtual time on the makespan ranks
	calls hist             // per-call virtual ns, all ranks
}

// aggregate folds every span of the rep by "layer.name".
func (t *tracer) aggregate() map[string]*spanAgg {
	out := map[string]*spanAgg{}
	for _, w := range t.worlds {
		mk := makespanRank(w.report)
		for _, p := range w.probes {
			for i := range p.spans {
				s := &p.spans[i]
				key := s.layer + "." + s.name
				a := out[key]
				if a == nil {
					a = &spanAgg{}
					out[key] = a
				}
				a.count += s.count
				if p.rank == mk {
					a.vt += s.busyVT
				}
				if s.calls != nil {
					a.calls.merge(s.calls)
				} else {
					a.calls.add(int64(s.busyVT))
				}
			}
		}
	}
	return out
}

// layerCalls sums the calls the benchmark made into one layer.
func layerCalls(agg map[string]*spanAgg, layer string) int64 {
	var n int64
	for key, a := range agg {
		if strings.HasPrefix(key, layer+".") {
			n += a.count
		}
	}
	return n
}

// unattributedPct is the share of the makespan ranks' virtual time that
// lies outside every layer call the benchmark made (and outside the
// application compute it charged itself): final clock minus the outermost
// layer spans, over the final clock. Spans of layer "app" are the
// benchmark's own phase groupings and are transparent here.
func (t *tracer) unattributedPct() float64 {
	var total, attributed simtime.Duration
	for _, w := range t.worlds {
		mk := makespanRank(w.report)
		total += w.report.RankTimes[mk].Sub(0)
		p := w.probes[mk]
		for i := range p.spans {
			s := &p.spans[i]
			if s.layer == "app" && s.name != "compute" {
				continue
			}
			outermost := true
			for a := s.parent; a >= 0; a = p.spans[a].parent {
				if p.spans[a].layer != "app" {
					outermost = false
					break
				}
			}
			if outermost {
				attributed += s.busyVT
			}
		}
	}
	return 100 * ratio(float64(total-attributed), float64(total))
}

// addNet and addFS sum the per-world hardware counters of one rep.
func addNet(a, b netsim.Stats) netsim.Stats {
	a.Messages += b.Messages
	a.Bytes += b.Bytes
	a.LocalMessages += b.LocalMessages
	a.PeakOverlap = max(a.PeakOverlap, b.PeakOverlap)
	a.CongestedMsgs += b.CongestedMsgs
	a.OneSidedMsgs += b.OneSidedMsgs
	a.TwoSidedMsgs += b.TwoSidedMsgs
	a.SetupTimeTotal += b.SetupTimeTotal
	return a
}

func addFS(a, b pfs.Stats) pfs.Stats {
	a.Reads += b.Reads
	a.Writes += b.Writes
	a.BytesRead += b.BytesRead
	a.BytesWritten += b.BytesWritten
	a.LockConflicts += b.LockConflicts
	a.CacheHits += b.CacheHits
	a.Retries += b.Retries
	return a
}

// spanMetrics emits everything derived from the probes, the layers' own
// counters and the trace.Recorder of one traced rep.
// writeAtCPU is the CPU time the profile found under tcio's WriteAt.
func spanMetrics(m *layerSet, t *tracer, out repOut, prog program, writeAtCPU int64) {
	agg := t.aggregate()
	// called hands emit the aggregate of one call kind, if the workload
	// made that call at all.
	called := func(key string, emit func(a *spanAgg)) {
		if a := agg[key]; a != nil && a.count > 0 {
			emit(a)
		}
	}
	vtMs := func(layer string, kinds ...string) {
		for _, kind := range kinds {
			called(layer+"."+kind, func(a *spanAgg) { m.set(layer+"."+kind+".vt_ms", ms(a.vt)) })
		}
	}

	tcioCalls := layerCalls(agg, "tcio")
	if tcioCalls > 0 {
		m.set("tcio.calls", float64(tcioCalls))
		vtMs("tcio", "open", "writeat", "flush", "readat", "fetch", "close")
		called("tcio.writeat", func(a *spanAgg) {
			m.set("tcio.writeat.vt_p50_ns", float64(a.calls.quantile(0.50)))
			m.set("tcio.writeat.vt_p99_ns", float64(a.calls.quantile(0.99)))
			m.set("tcio.writeat.vt_max_ns", float64(a.calls.max))
			m.set("tcio.writeat.host_ns_per_call", ratio(float64(writeAtCPU), float64(a.count)))
		})
		called("tcio.fetch", func(a *spanAgg) {
			m.set("tcio.fetch.vt_p50_us", float64(a.calls.quantile(0.50))/1e3)
			m.set("tcio.fetch.vt_max_us", float64(a.calls.max)/1e3)
		})
		called("tcio.close", func(a *spanAgg) {
			m.set("tcio.close.vt_p50_us", float64(a.calls.quantile(0.50))/1e3)
			m.set("tcio.close.vt_max_us", float64(a.calls.max)/1e3)
		})

		var st struct {
			writes, flushes, gets, pops, fsWrites, retries int64
			lock, put, unlock                              simtime.Duration
		}
		for _, wt := range t.worlds {
			for _, p := range wt.probes {
				for _, s := range p.tcio {
					st.writes += s.Writes
					st.flushes += s.Level1Flush
					st.gets += s.Gets
					st.pops += s.Populations
					st.fsWrites += s.FSWrites
					st.retries += s.Retries
					st.lock += s.LockWait
					st.put += s.PutIssue
					st.unlock += s.UnlockWait
				}
			}
		}
		m.set("tcio.level1_flushes", float64(st.flushes))
		m.set("tcio.coalesce_ratio", ratio(float64(st.writes), float64(st.flushes)))
		m.set("tcio.gets", float64(st.gets))
		m.set("tcio.populations", float64(st.pops))
		m.set("tcio.fs_writes", float64(st.fsWrites))
		m.set("tcio.retries", float64(st.retries))
		m.set("tcio.lock_wait_ms", ms(st.lock))
		m.set("tcio.put_issue_ms", ms(st.put))
		m.set("tcio.unlock_wait_ms", ms(st.unlock))
	}
	// The recorder rides wherever a tcio.Config is built here, which
	// includes the delegation tier's servers.
	if t.rec.Len() > 0 {
		if tcioCalls > 0 {
			sum := t.rec.Summary()
			m.set("tcio.ev.flush.vt_ms", ms(sum[trace.KindFlush].Dur))
			m.set("tcio.ev.drain.vt_ms", ms(sum[trace.KindDrain].Dur))
			m.set("tcio.ev.populate.vt_ms", ms(sum[trace.KindPopulate].Dur))
		}
		m.set("trace.events", float64(t.rec.Len()))
		m.set("trace.dropped", float64(t.rec.Dropped()))
	}

	called("mpi.barrier", func(a *spanAgg) {
		m.set("mpi.barriers", float64(a.count))
		m.set("mpi.barrier.vt_ms", ms(a.vt))
	})
	var skew simtime.Duration
	for _, w := range t.worlds {
		lo, hi := w.report.RankTimes[0], w.report.RankTimes[0]
		for _, rt := range w.report.RankTimes {
			lo, hi = min(lo, rt), max(hi, rt)
		}
		skew = max(skew, hi.Sub(lo))
	}
	m.set("mpi.exit_skew_ms", ms(skew))

	net := out.net
	m.set("netsim.messages", float64(net.Messages))
	m.set("netsim.MB", float64(net.Bytes)/1e6)
	m.set("netsim.onesided_msgs", float64(net.OneSidedMsgs))
	m.set("netsim.twosided_msgs", float64(net.TwoSidedMsgs))
	m.set("netsim.congested_share", ratio(float64(net.CongestedMsgs), float64(net.Messages)))
	m.set("netsim.peak_overlap", float64(net.PeakOverlap))
	m.set("netsim.setup_vt_ms", ms(net.SetupTimeTotal))

	fs := out.fs
	m.set("pfs.reads", float64(fs.Reads))
	m.set("pfs.writes", float64(fs.Writes))
	m.set("pfs.read_MB", float64(fs.BytesRead)/1e6)
	m.set("pfs.written_MB", float64(fs.BytesWritten)/1e6)
	m.set("pfs.avg_req_KB", ratio(float64(fs.BytesRead+fs.BytesWritten)/1e3, float64(fs.Reads+fs.Writes)))
	m.set("pfs.lock_conflicts", float64(fs.LockConflicts))
	m.set("pfs.cache_hits", float64(fs.CacheHits))
	m.set("pfs.retries", float64(fs.Retries))

	if n := layerCalls(agg, "mpiio"); n > 0 {
		m.set("mpiio.calls", float64(n))
		vtMs("mpiio", "setview", "writeall", "readall", "writeat", "readat")
		called("mpiio.writeat", func(a *spanAgg) {
			m.set("mpiio.writeat.vt_p99_us", float64(a.calls.quantile(0.99))/1e3)
		})
		var retries int64
		for _, wt := range t.worlds {
			for _, p := range wt.probes {
				retries += p.mpiioRetries
			}
		}
		m.set("mpiio.retries", float64(retries))
	}

	if layerCalls(agg, "delegate") > 0 {
		m.set("delegate.write_phase.vt_ms", ms(out.writeEnd.Sub(0)))
		m.set("delegate.cold_pass.vt_ms", ms(out.coldEnd.Sub(out.writeEnd)))
		m.set("delegate.hot_pass.vt_ms", ms(out.hotEnd.Sub(out.coldEnd)))
		called("delegate.readat", func(a *spanAgg) {
			m.set("delegate.read.vt_p50_us", float64(a.calls.quantile(0.50))/1e3)
			m.set("delegate.read.vt_p99_us", float64(a.calls.quantile(0.99))/1e3)
			m.set("delegate.read.vt_max_us", float64(a.calls.max)/1e3)
		})
		var staged, batched, hits, misses, evict, fsReads, epochs int64
		for _, s := range out.servers {
			staged += s.StagedWrites
			batched += s.BatchedRuns
			hits += s.CacheHits
			misses += s.CacheMisses
			evict += s.CacheEvictions
			fsReads += s.FSReads
			epochs += s.ReadEpochs
		}
		m.set("delegate.staged_writes", float64(staged))
		m.set("delegate.batched_runs", float64(batched))
		m.set("delegate.agg_factor", ratio(float64(staged), float64(batched)))
		m.set("delegate.credit_stalls", float64(out.creditStalls))
		m.set("delegate.cache_hit_ratio", ratio(float64(hits), float64(hits+misses)))
		m.set("delegate.cache_evictions", float64(evict))
		m.set("delegate.fs_reads", float64(fsReads))
		m.set("delegate.read_epochs", float64(epochs))
	}

	if a, ok := prog.(*artProg); ok {
		vtMs("art", "dump", "restore")
		var sizes hist
		for _, tr := range a.trees {
			for _, pc := range tr.Pieces() {
				sizes.add(int64(len(pc.Data)))
			}
		}
		m.set("art.pieces", float64(sizes.n))
		m.set("art.piece_bytes_p50", float64(sizes.quantile(0.50)))
	}

	m.set("simtime.vt_unattributed_pct", t.unattributedPct())
}

// repMetrics emits the determinism pair from the untraced reps' virtual
// makespans.
func repMetrics(m *layerSet, virtualNs []int64) {
	if len(virtualNs) == 0 {
		return
	}
	v := append([]int64(nil), virtualNs...)
	sort.Slice(v, func(i, j int) bool { return v[i] < v[j] })
	distinct := 1
	for i := 1; i < len(v); i++ {
		if v[i] != v[i-1] {
			distinct++
		}
	}
	median := float64(v[len(v)/2])
	m.set("simtime.makespan_spread_pct", 100*ratio(float64(v[len(v)-1]-v[0]), median))
	m.set("simtime.distinct_makespans", float64(distinct))
}

// profileMetrics emits each layer's share of CPU samples and its mutex and
// block delay.
func profileMetrics(m *layerSet, cpu, mutex, block map[string]int64) {
	var total int64
	for _, v := range cpu {
		total += v
	}
	for _, layer := range cpuLayers {
		m.set(layer+".cpu_pct", 100*ratio(float64(cpu[layer]), float64(total)))
	}
	for _, layer := range []string{"mpi", "netsim", "pfs"} {
		m.set(layer+".mutex_wait_ms", float64(mutex[layer])/1e6)
	}
	m.set("mpi.block_wait_ms", float64(block["mpi"])/1e6)
}

// describeShares renders a profile attribution as an info line.
func describeShares(kind string, by map[string]int64) string {
	type kv struct {
		k string
		v int64
	}
	var all []kv
	var total int64
	for k, v := range by {
		all = append(all, kv{k, v})
		total += v
	}
	sort.Slice(all, func(i, j int) bool { return all[i].v > all[j].v || all[i].v == all[j].v && all[i].k < all[j].k })
	var b strings.Builder
	fmt.Fprintf(&b, "info (host): %s by layer:", kind)
	for _, e := range all {
		fmt.Fprintf(&b, " %s %.1f%%", e.k, 100*ratio(float64(e.v), float64(total)))
	}
	return b.String()
}
