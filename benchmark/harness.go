package main

// Run discipline. One process, closed loop: a batch simulator has no
// arrival process, so the metrics are work per second at a stated input
// size. Per workload: set-up (inputs from the seed plus one untimed warm-up
// rep, so mpi's buffer pools and lazy initialisation are filled), then
// timed reps until the measuring window closes, each preceded by an
// untimed runtime.GC() (without it host-wall medians wander 2-3x), each in
// a fresh file system and fresh worlds, each byte-verified. Tracing and
// profiling are off for every end-to-end number; -trace 1 adds one extra
// rep with both on.

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

const (
	// setups is how many times set-up is run and timed per workload; the
	// last one's inputs feed the reps. One sample of a seconds-long host
	// time is too noisy to bound.
	setups = 3
	// minReps is the fewest timed reps a run reports, whatever the window.
	minReps = 3
)

type options struct {
	seed    int64
	seconds float64
	trace   bool
	toy     bool // tests only: the ≤16-rank sizes
	outDir  string
}

// metricDef is one end-to-end metric. kind says which clock it is on:
// simulated (virtual time of the modelled cluster) or host (this process).
type metricDef struct {
	name, unit, better, kind string
}

// endToEnd lists the end-to-end metrics in report order. fail_share is
// reported beside them but is not a bounded metric: its bound is zero, so
// the command itself fails on any failed operation.
var endToEnd = []metricDef{
	{"sim_write_MBps", "MB/s", "higher", "simulated"},
	{"sim_read_MBps", "MB/s", "higher", "simulated"},
	{"sim_peak_mem_MB", "MB", "lower", "simulated"},
	{"host_wall_s", "s", "lower", "host"},
	{"host_alloc_MB", "MB", "lower", "host"},
	{"setup_s", "s", "lower", "host"},
}

// metricValue is one emitted number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// e2eValue is one end-to-end metric of one workload: every sample, and
// their summary.
type e2eValue struct {
	Unit   string `json:"unit"`
	Better string `json:"better"`
	Kind   string `json:"kind"`
	summary
	Samples []float64 `json:"samples"`
}

// workloadResult is everything one workload's run produced.
type workloadResult struct {
	Name         string `json:"name"`
	Why          string `json:"why"`
	Geometry     string `json:"geometry"`
	InputsSHA256 string `json:"inputs_sha256"`
	Reps         int    `json:"reps"`
	// Attempted and Failed count operations, an operation being one phase
	// of one rep (warm-up and traced reps included); an error, a simulated
	// out-of-memory and a byte mismatch all fail it.
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Failures  []string `json:"failures,omitempty"`

	EndToEnd map[string]e2eValue `json:"end_to_end"`
	// VirtualNs is each timed rep's write+read makespan in virtual
	// nanoseconds: the exact-match canary where the workload is deterministic.
	VirtualNs []int64 `json:"virtual_ns"`

	// After a traced run only. Calls counts the application's calls into
	// the I/O layers in the traced rep; PerLayer leaves out the span-derived
	// metrics of layers this workload never calls directly.
	Calls    int64                  `json:"calls,omitempty"`
	PerLayer map[string]metricValue `json:"per_layer,omitempty"`
	Info     []string               `json:"info,omitempty"`
}

// failShare is failed over attempted operations.
func (r *workloadResult) failShare() float64 {
	return ratio(float64(r.Failed), float64(r.Attempted))
}

// runResult is one invocation: the schema of -json and of baseline/.
type runResult struct {
	Schema     int              `json:"schema"`
	Seed       int64            `json:"seed"`
	Seconds    float64          `json:"seconds"`
	GoMaxProcs int              `json:"gomaxprocs"`
	GoVersion  string           `json:"go"`
	NumCPU     int              `json:"num_cpu"`
	Note       string           `json:"note"`
	Workloads  []workloadResult `json:"workloads"`
	// Micro holds the micro-benchmarks' per-layer metrics: one set per
	// invocation, because they do not depend on the workload.
	Micro map[string]metricValue `json:"micro,omitempty"`
}

func newRunResult(opt options) *runResult {
	return &runResult{
		Schema: 1, Seed: opt.seed, Seconds: opt.seconds,
		GoMaxProcs: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(),
		Note: "sim_* are simulated (virtual time of the modelled cluster; the model is unvalidated against hardware, so no error figure is given); host_* and setup_s are host facts of this Go process",
	}
}

// count records one rep's two operations.
func (r *workloadResult) count(out repOut) {
	for _, ph := range []phaseOut{out.write, out.read} {
		r.Attempted++
		if ph.err != nil {
			r.Failed++
			if len(r.Failures) < 4 {
				r.Failures = append(r.Failures, ph.name+": "+ph.err.Error())
			}
		}
	}
}

func mbps(bytes int64, vtNs int64) float64 {
	return ratio(float64(bytes)/1e6, float64(vtNs)/1e9)
}

// runWorkload runs one workload under the run discipline above.
func runWorkload(def workloadDef, opt options) (workloadResult, error) {
	res := workloadResult{Name: def.name, Why: def.why, EndToEnd: map[string]e2eValue{}}
	samples := map[string][]float64{}

	var prog program
	for i := 0; i < setups; i++ {
		runtime.GC()
		t0 := time.Now()
		prog = def.make(opt.toy)
		sha := prog.generate(opt.seed)
		res.count(prog.rep(nil))
		samples["setup_s"] = append(samples["setup_s"], time.Since(t0).Seconds())
		if i > 0 && sha != res.InputsSHA256 {
			return res, fmt.Errorf("%s: seed %d gave inputs %s, then %s", def.name, opt.seed, res.InputsSHA256, sha)
		}
		res.InputsSHA256 = sha
	}
	res.Geometry = prog.geometry()

	var before, after runtime.MemStats
	deadline := time.Now().Add(time.Duration(opt.seconds * float64(time.Second)))
	for res.Reps < minReps || time.Now().Before(deadline) {
		runtime.GC()
		runtime.ReadMemStats(&before)
		t0 := time.Now()
		out := prog.rep(nil)
		wall := time.Since(t0)
		runtime.ReadMemStats(&after)
		res.Reps++
		res.count(out)
		if out.write.err != nil || out.read.err != nil {
			continue // a failed rep has no throughput to report
		}
		samples["sim_write_MBps"] = append(samples["sim_write_MBps"], mbps(out.write.simBytes, int64(out.write.vt)))
		samples["sim_read_MBps"] = append(samples["sim_read_MBps"], mbps(out.read.simBytes, int64(out.read.vt)))
		samples["sim_peak_mem_MB"] = append(samples["sim_peak_mem_MB"], float64(out.peakMem)/1e6)
		samples["host_wall_s"] = append(samples["host_wall_s"], wall.Seconds())
		samples["host_alloc_MB"] = append(samples["host_alloc_MB"], float64(after.TotalAlloc-before.TotalAlloc)/1e6)
		res.VirtualNs = append(res.VirtualNs, int64(out.write.vt)+int64(out.read.vt))
	}
	for _, m := range endToEnd {
		res.EndToEnd[m.name] = e2eValue{Unit: m.unit, Better: m.better, Kind: m.kind,
			summary: summarize(samples[m.name]), Samples: samples[m.name]}
	}

	if opt.trace {
		out, err := tracedRep(def.name, prog, opt, &res)
		if err != nil {
			return res, err
		}
		res.count(out)
	}
	return res, nil
}

func (r workloadResult) print(w io.Writer) {
	fmt.Fprintf(w, "\n== %s ==\n", r.Name)
	fmt.Fprintf(w, "why:            %s\n", r.Why)
	fmt.Fprintf(w, "geometry:       %s\n", r.Geometry)
	fmt.Fprintf(w, "inputs_sha256:  %s\n", r.InputsSHA256)
	fmt.Fprintf(w, "reps:           %d timed (+%d set-ups with a warm-up rep each), GOMAXPROCS %d\n", r.Reps, setups, runtime.GOMAXPROCS(0))
	fmt.Fprintf(w, "%-18s %-6s %-10s %-7s %14s %14s %14s %3s\n", "end-to-end metric", "unit", "clock", "better", "median", "q1", "q3", "n")
	for _, m := range endToEnd {
		v := r.EndToEnd[m.name]
		fmt.Fprintf(w, "%-18s %-6s %-10s %-7s %14.6g %14.6g %14.6g %3d\n", m.name, v.Unit, v.Kind, v.Better, v.Median, v.Q1, v.Q3, v.N)
	}
	fmt.Fprintf(w, "%-18s %-6s %-10s %-7s %14.6g   (%d failed of %d operations)\n", "fail_share", "ratio", "-", "lower", r.failShare(), r.Failed, r.Attempted)
	for _, f := range r.Failures {
		fmt.Fprintf(w, "  FAILED %s\n", f)
	}
	if len(r.VirtualNs) > 0 {
		fmt.Fprintf(w, "virtual_ns per rep (simulated, write+read): %v\n", r.VirtualNs)
	}
	if r.PerLayer != nil {
		fmt.Fprintf(w, "calls:          %d application calls into the I/O layers in the traced rep\n", r.Calls)
		printLayers(w, "per-layer metric (traced rep; reps)", r.PerLayer)
	}
	for _, line := range r.Info {
		fmt.Fprintln(w, line)
	}
}

func printLayers(w io.Writer, title string, vals map[string]metricValue) {
	fmt.Fprintf(w, "%-40s %-6s %16s\n", title, "unit", "value")
	names := make([]string, 0, len(vals))
	for n := range vals {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "%-40s %-6s %16.6g\n", n, vals[n].Unit, vals[n].Value)
	}
}

// addMicros runs the micro-benchmarks once for the invocation.
func (run *runResult) addMicros(w io.Writer, benchtime string) error {
	m := newLayerSet()
	if err := runMicros(m, benchtime); err != nil {
		return err
	}
	run.Micro = m.vals
	fmt.Fprintf(w, "\n== micro-benchmarks (host, testing.Benchmark at -benchtime %s) ==\n", benchtime)
	printLayers(w, "per-layer metric (micro)", run.Micro)
	return nil
}

// printRatios prints the paper's comparisons as unnamed info lines: the
// model is unvalidated, so they are shapes, not metrics.
func (run *runResult) printRatios(w io.Writer) {
	med := func(wl, metric string) (float64, bool) {
		for _, r := range run.Workloads {
			if r.Name == wl {
				v := r.EndToEnd[metric].Median
				return v, v > 0
			}
		}
		return 0, false
	}
	for _, pair := range [][2]string{{"synth-tcio", "synth-ocio"}, {"art-tcio", "art-vanilla"}} {
		for _, m := range []string{"sim_write_MBps", "sim_read_MBps"} {
			a, okA := med(pair[0], m)
			b, okB := med(pair[1], m)
			if okA && okB {
				fmt.Fprintf(w, "info (simulated): %s %s / %s = %.3g (base %.6g MB/s)\n", m, pair[0], pair[1], a/b, b)
			}
		}
	}
}

func (run *runResult) writeJSON(path string) error {
	data, err := json.MarshalIndent(run, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// contractLine builds the one-object summary an outside harness reads:
// with tracing off every end-to-end metric, with tracing on every
// per-layer metric. Running one workload keys metrics by name; running
// several keys them workload/name. The line must carry every name, so a
// span-derived metric of a layer the workload never calls directly (absent
// from the tables above) reads 0 in it. problems lists what makes the run
// incorrect: a failed operation, a value that is not finite, a metric the
// contract names that this program does not know or did not emit.
func (run *runResult) contractLine(c *contract) (line []byte, problems []string) {
	out := struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{Metrics: map[string]metricValue{}}
	for _, r := range run.Workloads {
		out.Attempted += r.Attempted
		out.Failed += r.Failed
		prefix := ""
		if len(run.Workloads) > 1 {
			prefix = r.Name + "/"
		}
		lookup := func(name string) (metricValue, bool) {
			e, ok := r.EndToEnd[name]
			return metricValue{Value: e.Median, Unit: e.Unit}, ok && e.N > 0
		}
		want := c.EndToEnd
		if r.PerLayer != nil {
			want = c.PerLayer
			lookup = func(name string) (metricValue, bool) {
				if v, ok := r.PerLayer[name]; ok {
					return v, true
				}
				if v, ok := run.Micro[name]; ok {
					return v, true
				}
				unit, declared := layerUnit(name)
				return metricValue{Unit: unit}, declared
			}
		}
		for _, m := range want {
			v, ok := lookup(m.Name)
			switch {
			case !ok:
				problems = append(problems, fmt.Sprintf("%s: metric %s named in the contract was not emitted", r.Name, m.Name))
			case math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
				problems = append(problems, fmt.Sprintf("%s: metric %s is not finite", r.Name, m.Name))
			case v.Unit != m.Unit:
				problems = append(problems, fmt.Sprintf("%s: metric %s has unit %q, the contract says %q", r.Name, m.Name, v.Unit, m.Unit))
			default:
				out.Metrics[prefix+m.Name] = v
			}
		}
	}
	if out.Failed > 0 {
		problems = append(problems, fmt.Sprintf("%d of %d operations failed", out.Failed, out.Attempted))
	}
	out.Correct = len(problems) == 0
	line, err := json.Marshal(out)
	if err != nil {
		problems = append(problems, err.Error())
	}
	return line, problems
}
