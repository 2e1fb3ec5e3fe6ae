package main

import (
	"encoding/json"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"
)

const contractPath = "../BENCHMARK.json"

func toyOptions(t *testing.T, seed int64, trace bool) options {
	return options{seed: seed, seconds: 0, trace: trace, toy: true, outDir: t.TempDir()}
}

// TestContractMirrorsTables pins BENCHMARK.json to the tables this program
// emits from: same names, units and directions, in the same order.
func TestContractMirrorsTables(t *testing.T) {
	c, err := loadContract(contractPath)
	if err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	seen := map[string]bool{}
	check := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q is not made of [A-Za-z0-9_.-]", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}

	if len(c.Workloads) != len(workloads) {
		t.Fatalf("contract has %d workloads, the program %d", len(c.Workloads), len(workloads))
	}
	for i, w := range workloads {
		check(w.name)
		if c.Workloads[i].Name != w.name || c.Workloads[i].Why != w.why {
			t.Errorf("workload %d: contract says %+v, the program {%s %s}", i, c.Workloads[i], w.name, w.why)
		}
	}
	if len(c.EndToEnd) != len(endToEnd) {
		t.Fatalf("contract has %d end-to-end metrics, the program %d", len(c.EndToEnd), len(endToEnd))
	}
	for i, m := range endToEnd {
		check(m.name)
		got := c.EndToEnd[i]
		if got.Name != m.name || got.Unit != m.unit || got.Better != m.better {
			t.Errorf("end-to-end metric %d: contract says %+v, the program %+v", i, got, m)
		}
		if got.Bound <= 0 || got.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.name, got.Bound)
		}
	}
	if len(c.PerLayer) != len(layerMetrics) || len(layerMetrics) > 128 {
		t.Fatalf("contract has %d per-layer metrics, the program %d (at most 128)", len(c.PerLayer), len(layerMetrics))
	}
	for i, m := range layerMetrics {
		check(m.name)
		got := c.PerLayer[i]
		if got.Name != m.name || got.Unit != m.unit || got.Better != m.better {
			t.Errorf("per-layer metric %d: contract says %+v, the program %+v", i, got, m)
		}
	}
}

// appliesTo names, per workload, span-derived metrics that must be present
// in its per-layer table, and some that must be left out because the
// workload never calls that layer directly.
var appliesTo = map[string]struct{ present, absent []string }{
	"synth-tcio":  {[]string{"tcio.calls", "tcio.writeat.vt_p99_ns", "tcio.level1_flushes", "tcio.ev.drain.vt_ms", "trace.events"}, []string{"mpiio.calls", "delegate.agg_factor", "art.pieces", "mpi.barriers"}},
	"synth-ocio":  {[]string{"mpiio.calls", "mpiio.writeall.vt_ms", "mpiio.retries"}, []string{"tcio.calls", "trace.events", "mpiio.writeat.vt_ms"}},
	"art-tcio":    {[]string{"art.dump.vt_ms", "art.pieces"}, []string{"tcio.calls", "mpiio.calls"}},
	"art-vanilla": {[]string{"art.restore.vt_ms", "art.piece_bytes_p50"}, []string{"tcio.calls", "mpiio.calls"}},
	"delegate-rw": {[]string{"delegate.read.vt_p99_us", "delegate.cache_hit_ratio", "delegate.hot_pass.vt_ms", "trace.events"}, []string{"tcio.calls", "art.pieces"}},
	"scale-4096":  {[]string{"tcio.calls", "tcio.fetch.vt_ms", "mpi.barriers", "mpi.barrier.vt_ms"}, []string{"mpiio.calls", "delegate.agg_factor"}},
}

// alwaysPresent are emitted for every workload, used layer or not.
var alwaysPresent = []string{
	"tcio.cpu_pct", "mpi.cpu_pct", "netsim.cpu_pct", "pfs.cpu_pct", "mpiio.cpu_pct", "runtime.cpu_pct",
	"mpi.exit_skew_ms", "mpi.spawn_host_us_per_rank", "mpi.mutex_wait_ms", "mpi.block_wait_ms",
	"netsim.messages", "pfs.writes", "pfs.avg_req_KB",
	"simtime.makespan_spread_pct", "simtime.distinct_makespans", "simtime.vt_unattributed_pct",
	"trace.overhead_pct", "runtime.mallocs_per_call", "runtime.cpu_user_s",
}

// TestToyRun drives all six workloads at toy size through the whole
// command path: reps, traced rep, micro-benchmarks, summary line.
func TestToyRun(t *testing.T) {
	c, err := loadContract(contractPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, traced := range []bool{false, true} {
		opt := toyOptions(t, 5, traced)
		run := newRunResult(opt)
		for _, def := range workloads {
			res, err := runWorkload(def, opt)
			if err != nil {
				t.Fatalf("%s: %v", def.name, err)
			}
			if res.Failed != 0 || res.failShare() != 0 {
				t.Errorf("%s: %d of %d operations failed: %v", def.name, res.Failed, res.Attempted, res.Failures)
			}
			if res.Reps != minReps || res.Attempted != 2*(setups+minReps+btoi(traced)) {
				t.Errorf("%s: %d reps, %d operations", def.name, res.Reps, res.Attempted)
			}
			for _, m := range endToEnd {
				v := res.EndToEnd[m.name]
				if v.N == 0 || !(v.Median > 0) || math.IsInf(v.Median, 0) {
					t.Errorf("%s: %s = %+v, want a positive finite median", def.name, m.name, v.summary)
				}
			}
			if traced {
				for _, n := range append(append([]string(nil), alwaysPresent...), appliesTo[def.name].present...) {
					if _, ok := res.PerLayer[n]; !ok {
						t.Errorf("%s: per-layer metric %s was not emitted", def.name, n)
					}
				}
				for _, n := range appliesTo[def.name].absent {
					if _, ok := res.PerLayer[n]; ok {
						t.Errorf("%s: per-layer metric %s emitted for a layer the workload never calls", def.name, n)
					}
				}
				for n, v := range res.PerLayer {
					if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
						t.Errorf("%s: %s = %v", def.name, n, v.Value)
					}
				}
				if _, err := os.Stat(opt.outDir + "/" + def.name + ".trace.json"); err != nil {
					t.Errorf("%s: no trace file: %v", def.name, err)
				}
			}
			run.Workloads = append(run.Workloads, res)
		}
		if traced {
			// One iteration each: the micro-benchmarks must run and emit,
			// their numbers are not looked at.
			var sink strings.Builder
			if err := run.addMicros(&sink, "1x"); err != nil {
				t.Fatal(err)
			}
		}

		line, problems := run.contractLine(c)
		for _, p := range problems {
			t.Error(p)
		}
		var got struct {
			Correct   bool
			Attempted int
			Failed    int
			Metrics   map[string]metricValue
		}
		if err := json.Unmarshal(line, &got); err != nil {
			t.Fatalf("summary line %s: %v", line, err)
		}
		want := len(workloads) * len(c.EndToEnd)
		if traced {
			want = len(workloads) * len(c.PerLayer)
		}
		if !got.Correct || got.Failed != 0 || len(got.Metrics) != want {
			t.Errorf("traced=%v: summary line has correct=%v failed=%d and %d metrics, want %d", traced, got.Correct, got.Failed, len(got.Metrics), want)
		}

		// A single workload keys its metrics by bare name.
		single := *run
		single.Workloads = run.Workloads[:1]
		line, _ = single.contractLine(c)
		if err := json.Unmarshal(line, &got); err != nil {
			t.Fatal(err)
		}
		probe := "setup_s"
		if traced {
			probe = "tcio.calls"
		}
		if _, ok := got.Metrics[probe]; !ok {
			t.Errorf("traced=%v: single-workload summary line lacks %s", traced, probe)
		}
	}
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// TestSeedChangesInputsOnly checks that the seed drives the bytes and
// nothing else: another seed gives other inputs, the same geometry and the
// same calls; the same seed gives the same inputs.
func TestSeedChangesInputsOnly(t *testing.T) {
	type outcome struct {
		sha, geometry string
		calls         int64
	}
	run := func(def workloadDef, seed int64) outcome {
		prog := def.make(true)
		sha := prog.generate(seed)
		tr := newTracer()
		if out := prog.rep(tr); out.write.err != nil || out.read.err != nil {
			t.Fatalf("%s seed %d: %v, %v", def.name, seed, out.write.err, out.read.err)
		}
		return outcome{sha, prog.geometry(), tr.calls()}
	}
	for _, def := range workloads {
		a, b, again := run(def, 5), run(def, 6), run(def, 5)
		if a.sha == b.sha {
			t.Errorf("%s: seeds 5 and 6 gave the same inputs %s", def.name, a.sha)
		}
		if a != again {
			t.Errorf("%s: seed 5 gave %+v, then %+v", def.name, a, again)
		}
		if a.geometry != b.geometry {
			t.Errorf("%s: geometry depends on the seed:\n%s\n%s", def.name, a.geometry, b.geometry)
		}
		if a.calls == 0 || a.calls != b.calls {
			t.Errorf("%s: %d calls with seed 5, %d with seed 6", def.name, a.calls, b.calls)
		}
	}
}

// TestCorruptionTripsTheGate checks the correctness gate: when what is read
// back differs from the seeded input in one byte (one tree for the ART
// workloads), the read phase fails and fail_share is no longer zero.
func TestCorruptionTripsTheGate(t *testing.T) {
	for _, def := range workloads {
		prog := def.make(true)
		prog.generate(5)
		res := workloadResult{}
		res.count(prog.rep(nil))
		if res.Failed != 0 {
			t.Fatalf("%s: clean rep failed: %v", def.name, res.Failures)
		}
		prog.corruptExpected()
		out := prog.rep(nil)
		res.count(out)
		if out.write.err != nil || out.read.err == nil {
			t.Errorf("%s: corrupted rep: write error %v, read error %v; want only the read to fail", def.name, out.write.err, out.read.err)
		}
		if res.failShare() != 0.25 {
			t.Errorf("%s: fail_share = %g after one failed operation of four", def.name, res.failShare())
		}
		_, problems := (&runResult{Workloads: []workloadResult{res}}).contractLine(&contract{})
		if len(problems) == 0 {
			t.Errorf("%s: a failed operation left the summary line correct", def.name)
		}
	}
}

// TestScaleCanary pins the toy-size virtual makespan of the deterministic
// workload: the same on every rep and every run.
func TestScaleCanary(t *testing.T) {
	def, _ := findWorkload("scale-4096")
	res, err := runWorkload(def, toyOptions(t, 5, false))
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range res.VirtualNs {
		if v != res.VirtualNs[0] {
			t.Fatalf("virtual makespans differ across reps: %v", res.VirtualNs)
		}
	}
}

func TestSummarizeMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	// gives [3.5, 13.5, 31.0].
	s := summarize([]float64{46, 1, 37, 2, 29, 4, 22, 7, 16, 11})
	if s.Q1 != 3.5 || s.Median != 13.5 || s.Q3 != 31 || s.N != 10 {
		t.Errorf("summarize = %+v", s)
	}
	// statistics.quantiles([3, 1, 2], n=4) gives [1.0, 2.0, 3.0].
	if s := summarize([]float64{3, 1, 2}); s.Q1 != 1 || s.Median != 2 || s.Q3 != 3 {
		t.Errorf("summarize = %+v", s)
	}
}

func TestVerdict(t *testing.T) {
	v := func(median, q1, q3 float64, better string) e2eValue {
		return e2eValue{Better: better, summary: summary{Median: median, Q1: q1, Q3: q3, N: 5}}
	}
	cases := []struct {
		a, b  e2eValue
		bound float64
		want  string
	}{
		{v(100, 99, 101, "higher"), v(97, 96, 98, "higher"), 0.05, "ok"},
		{v(100, 99, 101, "higher"), v(90, 89, 91, "higher"), 0.05, "regressed"},
		{v(100, 99, 101, "lower"), v(90, 89, 91, "lower"), 0.05, "ok"},
		{v(100, 99, 101, "lower"), v(110, 109, 111, "lower"), 0.05, "regressed"},
		{v(100, 90, 110, "lower"), v(101, 100, 102, "lower"), 0.05, "unresolved"},
		{v(100, 99, 101, "lower"), e2eValue{}, 0.05, "missing"},
	}
	for i, c := range cases {
		if got := verdict(c.a, c.b, c.bound); got != c.want {
			t.Errorf("case %d: verdict = %s, want %s", i, got, c.want)
		}
	}
}
