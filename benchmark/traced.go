package main

// The traced rep: one extra repetition with the span probes live, a
// trace.Recorder attached to every tcio.Config the benchmark builds, and
// CPU, mutex and block profiles on. It yields the per-layer table and a
// Chrome trace-event file (one track per rank, virtual-time axis) written
// after the rep ends. Nothing measured here feeds an end-to-end number.

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"syscall"
	"time"

	"github.com/tcio/tcio/internal/mpi"
	"github.com/tcio/tcio/internal/simtime"
)

// blockProfileRate samples blocking events of 10 µs and longer in full and
// shorter ones in proportion; rate 1 would itself slow 4096 blocking ranks.
const blockProfileRate = 10_000

// lookupByLayer reads one of the runtime's cumulative profiles and
// attributes it to layers.
func lookupByLayer(name string) (map[string]int64, error) {
	var buf bytes.Buffer
	if err := pprof.Lookup(name).WriteTo(&buf, 0); err != nil {
		return nil, err
	}
	prof, err := parseProfile(buf.Bytes())
	if err != nil {
		return nil, err
	}
	return prof.byLayer(), nil
}

// waitProfiles reads the cumulative mutex and block profiles by layer.
func waitProfiles() (mutex, block map[string]int64, err error) {
	if mutex, err = lookupByLayer("mutex"); err != nil {
		return nil, nil, err
	}
	block, err = lookupByLayer("block")
	return mutex, block, err
}

func subtract(after, before map[string]int64) map[string]int64 {
	out := map[string]int64{}
	for k, v := range after {
		if d := v - before[k]; d > 0 {
			out[k] = d
		}
	}
	return out
}

func cpuSeconds() (user, sys float64) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0
	}
	sec := func(tv syscall.Timeval) float64 { return float64(tv.Sec) + float64(tv.Usec)/1e6 }
	return sec(ru.Utime), sec(ru.Stime)
}

// tracedRep runs prog once with everything on and derives the per-layer
// metrics. res carries the untraced reps the traced one is compared with.
func tracedRep(name string, prog program, opt options, res *workloadResult) (repOut, error) {
	m := newLayerSet()
	mutexBefore, blockBefore, err := waitProfiles()
	if err != nil {
		return repOut{}, err
	}

	tr := newTracer()
	var cpuBuf bytes.Buffer
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	user0, sys0 := cpuSeconds()
	runtime.SetMutexProfileFraction(1)
	runtime.SetBlockProfileRate(blockProfileRate)
	if err := pprof.StartCPUProfile(&cpuBuf); err != nil {
		return repOut{}, err
	}
	t0 := time.Now()
	out := prog.rep(tr)
	wall := time.Since(t0)
	pprof.StopCPUProfile()
	runtime.SetMutexProfileFraction(0)
	runtime.SetBlockProfileRate(0)
	user1, sys1 := cpuSeconds()
	runtime.ReadMemStats(&after)
	if out.write.err != nil || out.read.err != nil {
		return out, nil // counted as failed by the caller; nothing to attribute
	}

	cpuProf, err := parseProfile(cpuBuf.Bytes())
	if err != nil {
		return out, err
	}
	mutexAfter, blockAfter, err := waitProfiles()
	if err != nil {
		return out, err
	}
	cpu := cpuProf.byLayer()
	profileMetrics(m, cpu, subtract(mutexAfter, mutexBefore), subtract(blockAfter, blockBefore))
	res.Info = append(res.Info, describeShares("cpu samples", cpu))

	spanMetrics(m, tr, out, prog, cpuProf.under(tcioWriteAt))
	repMetrics(m, res.VirtualNs)

	res.Calls = tr.calls()
	calls := float64(res.Calls)
	m.set("runtime.mallocs_per_call", ratio(float64(after.Mallocs-before.Mallocs), calls))
	m.set("runtime.alloc_B_per_call", ratio(float64(after.TotalAlloc-before.TotalAlloc), calls))
	m.set("runtime.gc_cycles", float64(after.NumGC-before.NumGC))
	m.set("runtime.gc_pause_ms", float64(after.PauseTotalNs-before.PauseTotalNs)/1e6)
	// The runtime keeps no heap high-water mark; HeapSys (address space
	// obtained for the heap, never returned) is the closest it offers.
	m.set("runtime.heap_peak_MB", float64(after.HeapSys)/1e6)
	m.set("runtime.cpu_user_s", user1-user0)
	m.set("runtime.cpu_sys_s", sys1-sys0)
	if base := res.EndToEnd["host_wall_s"].Median; base > 0 {
		m.set("trace.overhead_pct", 100*(wall.Seconds()-base)/base)
	}

	// Goroutine spawn and teardown at this workload's rank count.
	procs := len(tr.worlds[0].probes)
	var spawn []float64
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		if _, err := mpi.Run(mpi.Config{Procs: procs}, func(*mpi.Comm) error { return nil }); err != nil {
			return out, err
		}
		spawn = append(spawn, float64(time.Since(t0).Microseconds())/float64(procs))
	}
	m.set("mpi.spawn_host_us_per_rank", summarize(spawn).Median)

	path := filepath.Join(opt.outDir, name+".trace.json")
	if err := writeChromeTrace(path, name, tr); err != nil {
		return out, err
	}
	res.Info = append(res.Info,
		fmt.Sprintf("info (host): traced rep took %.3f s against an untraced median of %.3f s", wall.Seconds(), res.EndToEnd["host_wall_s"].Median),
		fmt.Sprintf("info: trace written to %s (open in https://ui.perfetto.dev; the time axis is virtual time)", path))

	res.PerLayer = m.vals
	return out, nil
}

// calls counts the application's calls into the I/O layers during the
// rep: every span except the benchmark's own groupings.
func (t *tracer) calls() int64 {
	var n int64
	for _, w := range t.worlds {
		for _, p := range w.probes {
			for i := range p.spans {
				if p.spans[i].layer != "app" {
					n += p.spans[i].count
				}
			}
		}
	}
	return n
}

// writeChromeTrace writes the rep's spans in Chrome trace-event format:
// one process per world, one thread per rank, timestamps in virtual
// microseconds. Host times ride along as arguments.
func writeChromeTrace(path, workload string, t *tracer) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	fmt.Fprintf(w, `{"displayTimeUnit":"ns","otherData":{"workload":%q,"time_axis":"virtual time of the simulated cluster"},"traceEvents":[`, workload)
	first := true
	event := func(format string, args ...any) {
		if !first {
			w.WriteByte(',')
		}
		first = false
		w.WriteByte('\n')
		fmt.Fprintf(w, format, args...)
	}
	us := func(ns int64) float64 { return float64(ns) / 1e3 }
	for wi, wt := range t.worlds {
		pid := wi + 1
		event(`{"ph":"M","name":"process_name","pid":%d,"args":{"name":%q}}`, pid, workload+" "+wt.name+" world")
		for _, p := range wt.probes {
			if len(p.spans) == 0 {
				continue
			}
			event(`{"ph":"M","name":"thread_name","pid":%d,"tid":%d,"args":{"name":"rank %d"}}`, pid, p.rank, p.rank)
			// Self time: a span's busy virtual time minus its children's.
			self := make([]simtime.Duration, len(p.spans))
			for i := range p.spans {
				self[i] += p.spans[i].busyVT
				if parent := p.spans[i].parent; parent >= 0 {
					self[parent] -= p.spans[i].busyVT
				}
			}
			for i := range p.spans {
				s := &p.spans[i]
				if s.count == 0 {
					continue
				}
				event(`{"ph":"X","name":%q,"cat":%q,"pid":%d,"tid":%d,"ts":%.3f,"dur":%.3f,"args":{"span":%d,"parent":%d,"calls":%d,"busy_vt_ns":%d,"self_vt_ns":%d,"host_start_us":%.3f,"host_end_us":%.3f`,
					s.layer+"."+s.name, s.layer, pid, p.rank, us(int64(s.vt0)), us(int64(s.vt1.Sub(s.vt0))),
					i, s.parent, s.count, int64(s.busyVT), int64(self[i]), us(s.h0), us(s.h1))
				if s.calls != nil {
					fmt.Fprintf(w, `,"call_vt_p50_ns":%d,"call_vt_p99_ns":%d,"call_vt_max_ns":%d`,
						s.calls.quantile(0.50), s.calls.quantile(0.99), s.calls.max)
				}
				w.WriteString("}}")
			}
		}
	}
	w.WriteString("\n]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
