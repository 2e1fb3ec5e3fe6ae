package bench

// The host-order ratchet: which outputs of the simulator follow the host's
// goroutine schedule rather than the program and its seed. Every touch of
// state that ranks share passes mpi's one gate (World.touch); this test arms
// a seeded jitter there, runs every sweep miniature and one conformance sweep
// under it, and diffs every field against an unjittered run.

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/tcio/tcio/internal/conformance"
	"github.com/tcio/tcio/internal/mpi"
	"github.com/tcio/tcio/internal/simtime"
)

// ratchetSeeds jitter seeds, each at every ratchetProcs GOMAXPROCS setting,
// are the full mode's jittered runs per program.
const ratchetSeeds = 10

var ratchetProcs = []int{1, 2, 8}

// jitterPerMille is the share of touches the jitter perturbs. One
// perturbation in jitterSleepOneIn is a sleep, the rest Goscheds: a sleep of
// a few microseconds takes a few hundred microseconds of wall time on Linux
// timers, and Goscheds reorder ranks nearly as well.
const (
	jitterPerMille   = 300
	jitterSleepOneIn = 8
)

// touchSites are the gates production code passes: mpi's own and
// storage.Client's. Some program must reach each one.
var touchSites = []string{
	"send", "recv", "lock", "put", "get", "collect", "alloc", "free",
	"fs.read", "fs.write", "fs.truncate",
}

// cell names one flattened field of one row.
type cell struct {
	row   int
	field string
}

// record is one run of a program: every exported field of every row, which
// may follow host order only where the allowlist says, and the lines that
// never may (Det cells, conformance summaries).
type record struct {
	fields map[cell]string
	exact  []string
}

type ratchetProgram struct {
	name string
	run  func(t *testing.T) record
}

// sweepProgram runs the sweep s builds under o, then check (if any) on its
// report.
func sweepProgram(name string, s func() *Sweep, o Options, check func(*testing.T, *Report)) ratchetProgram {
	return ratchetProgram{name: name, run: func(t *testing.T) record {
		rep, err := Run(s(), o)
		if err != nil {
			t.Fatal(err)
		}
		if check != nil {
			check(t, rep)
		}
		rec := record{fields: map[cell]string{}}
		for i := range rep.Rows {
			flatten(rec.fields, i, "", reflect.ValueOf(rep.Rows[i]))
		}
		for i, cells := range rep.Det() {
			rec.exact = append(rec.exact, fmt.Sprintf("row %d: %s", i, strings.Join(cells, " | ")))
		}
		return rec
	}}
}

// ratchetPrograms lists the programs: each sweep miniature, a Fig. 5 and an
// ART miniature, and the conformance sweep over three programs of each knob
// class.
func ratchetPrograms() []ratchetProgram {
	chaosOK := func(t *testing.T, rep *Report) {
		if len(rep.Rows) != 4 { // TCIO/OCIO x write/read at one rate
			t.Fatalf("rows = %d, want 4", len(rep.Rows))
		}
		for _, r := range rep.Rows {
			if r.Result != "ok" {
				t.Fatalf("run %+v did not survive 20%% transient faults: %s", r.Point, r.Result)
			}
		}
	}
	return []ratchetProgram{
		sweepProgram("chaos", func() *Sweep { return chaosSweep(testChaosGeometry()) }, testChaosOptions, chaosOK),
		// Row 0, 8-rank TCIO, is in no hostorder.allow line: a tcio
		// write+read's virtual time stays host-order-free at every
		// ratchetProcs setting.
		sweepProgram("fig5", func() *Sweep {
			return fig5Sweep(&figGeometry{Procs: []int{8, 16}, LenSims: []int{256 << 10}})
		}, Options{LenReal: 512}, nil),
		sweepProgram("art", func() *Sweep {
			return ART(&ARTGeometry{Procs: []int{16}, Trees: 64, Vars: 2, MuCells: 128, SigmaCells: 16, Seed: 5, Scale: 16})
		}, Options{}, nil),
		sweepProgram("delegate", func() *Sweep { return delegateSweep(smallDelegateOpts()) }, Options{Seed: 7}, nil),
		{name: "conform", run: func(t *testing.T) record {
			var out bytes.Buffer
			if _, err := conformance.RunSweep(&out, 1, 24, ""); err != nil {
				t.Fatal(err)
			}
			return record{exact: strings.Split(out.String(), "\n")}
		}},
	}
}

// flatten records every exported leaf of v under path, an embedded struct's
// fields promoted as Go spells them (Row.Time, not Row.PhaseResult.Time).
func flatten(out map[cell]string, row int, path string, v reflect.Value) {
	switch v.Kind() {
	case reflect.Pointer, reflect.Interface:
		if v.IsNil() {
			out[cell{row, path}] = "nil"
			return
		}
		flatten(out, row, path, v.Elem())
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			switch f := v.Type().Field(i); {
			case f.Anonymous:
				flatten(out, row, path, v.Field(i))
			case f.IsExported():
				flatten(out, row, strings.TrimPrefix(path+"."+f.Name, "."), v.Field(i))
			}
		}
	case reflect.Float32, reflect.Float64:
		out[cell{row, path}] = strconv.FormatFloat(v.Float(), 'g', -1, 64)
	default:
		out[cell{row, path}] = fmt.Sprint(v)
	}
}

// touchCensus counts touches per site across the rank goroutines.
type touchCensus struct{ sites sync.Map } // site → *atomic.Int64

func (c *touchCensus) add(site string) {
	n, ok := c.sites.Load(site)
	if !ok {
		n, _ = c.sites.LoadOrStore(site, new(atomic.Int64))
	}
	n.(*atomic.Int64).Add(1)
}

func (c *touchCensus) counts() map[string]int64 {
	out := map[string]int64{}
	c.sites.Range(func(site, n any) bool {
		out[site.(string)] = n.(*atomic.Int64).Load()
		return true
	})
	return out
}

// mix64 is SplitMix64's finalizer.
func mix64(h uint64) uint64 {
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	return h ^ h>>31
}

// jitterHook counts every touch into census and, for a nonzero seed,
// perturbs the host schedule at about jitterPerMille of them: a hash of
// (seed, rank, site, t) — no shared generator — picks zero to three
// Goscheds or a sleep of up to 20 µs.
func jitterHook(seed uint64, census *touchCensus) func(int, string, simtime.Time) {
	return func(rank int, site string, t simtime.Time) {
		census.add(site)
		if seed == 0 {
			return
		}
		h := mix64(seed ^ uint64(rank)<<40)
		for i := 0; i < len(site); i++ {
			h = (h ^ uint64(site[i])) * 0x100000001b3
		}
		if h = mix64(h ^ uint64(t)); h%1000 >= jitterPerMille {
			return
		}
		if h /= 1000; h%jitterSleepOneIn != 0 {
			for n := h / jitterSleepOneIn % 4; n > 0; n-- {
				runtime.Gosched()
			}
		} else {
			time.Sleep(time.Duration(h/jitterSleepOneIn%21) * time.Microsecond)
		}
	}
}

// runUnder runs p at GOMAXPROCS procs with the jitter of seed (0: none).
func runUnder(t *testing.T, p ratchetProgram, seed uint64, procs int, census *touchCensus) record {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	mpi.SetTouchHook(jitterHook(seed, census))
	defer mpi.SetTouchHook(nil)
	return p.run(t)
}

// allowlist maps program → field → row → whether the row is rare: listed
// rows may follow host order, and every one that is not rare must.
type allowlist map[string]map[string]map[int]bool

// loadAllowlist reads testdata/hostorder.allow: "program field rows" per
// line, rows a comma list of indexes and lo-hi ranges, each marked rare by a
// trailing '?'.
func loadAllowlist(t *testing.T) allowlist {
	t.Helper()
	f, err := os.Open(filepath.Join("testdata", "hostorder.allow"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	allow := allowlist{}
	sc := bufio.NewScanner(f)
	for line := 1; sc.Scan(); line++ {
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 || strings.HasPrefix(fields[0], "#") {
			continue
		}
		if len(fields) != 3 {
			t.Fatalf("hostorder.allow:%d: want \"program field rows\", got %q", line, sc.Text())
		}
		rows := map[int]bool{}
		for _, span := range strings.Split(fields[2], ",") {
			span, rare := strings.CutSuffix(span, "?")
			lo, hi, isRange := strings.Cut(span, "-")
			a, errA := strconv.Atoi(lo)
			b, errB := a, error(nil)
			if isRange {
				b, errB = strconv.Atoi(hi)
			}
			if errA != nil || errB != nil || b < a {
				t.Fatalf("hostorder.allow:%d: bad rows %q", line, fields[2])
			}
			for r := a; r <= b; r++ {
				rows[r] = rare
			}
		}
		if allow[fields[0]] == nil {
			allow[fields[0]] = map[string]map[int]bool{}
		}
		allow[fields[0]][fields[1]] = rows
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return allow
}

// sortedKeys lists m's keys in order.
func sortedKeys[K int | string, V any](m map[K]V) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// rowList renders rows as the allowlist spells them.
func rowList(rows []int) string {
	slices.Sort(rows)
	var parts []string
	for i := 0; i < len(rows); {
		j := i
		for j+1 < len(rows) && rows[j+1] == rows[j]+1 {
			j++
		}
		if j == i {
			parts = append(parts, strconv.Itoa(rows[i]))
		} else {
			parts = append(parts, fmt.Sprintf("%d-%d", rows[i], rows[j]))
		}
		i = j + 1
	}
	return strings.Join(parts, ",")
}

// TestHostOrderRatchet runs every program once unjittered at GOMAXPROCS 1,
// where the Go scheduler's own order makes the reference the same from one
// invocation to the next, then under ratchetSeeds jitter seeds at each
// ratchetProcs setting. It fails when
//   - a Det cell or a conformance summary line differs;
//   - a field differs on a row the allowlist does not name for it;
//   - a listed row that is not marked rare never differs, so the list can
//     only shrink;
//   - some touch site is reached by no program.
//
// Under -short (the race leg) it runs one jittered pass per program at
// GOMAXPROCS 2 and applies the first two checks only.
func TestHostOrderRatchet(t *testing.T) {
	allow := loadAllowlist(t)
	seeds, procs := ratchetSeeds, ratchetProcs
	if testing.Short() {
		seeds, procs = 1, []int{2}
	}
	reached := map[string]int64{}
	progs := ratchetPrograms()
	for _, p := range progs {
		t.Run(p.name, func(t *testing.T) {
			census := new(touchCensus)
			base := runUnder(t, p, 0, 1, census)
			counts := census.counts()
			for site, n := range counts {
				reached[site] += n
			}
			t.Logf("touch census: %v", counts)
			differ, runs := map[cell]int{}, 0
			for seed := 1; seed <= seeds; seed++ {
				for _, n := range procs {
					got := runUnder(t, p, uint64(seed), n, census)
					runs++
					if len(got.exact) != len(base.exact) {
						t.Fatalf("seed %d, GOMAXPROCS %d: %d exact lines, unjittered %d", seed, n, len(got.exact), len(base.exact))
					}
					for i := range base.exact {
						if got.exact[i] != base.exact[i] {
							t.Fatalf("seed %d, GOMAXPROCS %d: a host-order-free line moved:\n  unjittered %s\n  jittered   %s",
								seed, n, base.exact[i], got.exact[i])
						}
					}
					for c, v := range base.fields {
						if w, ok := got.fields[c]; !ok || w != v {
							differ[c]++
						}
					}
					for c := range got.fields {
						if _, ok := base.fields[c]; !ok {
							differ[c]++
						}
					}
				}
			}
			listed := allow[p.name]
			unlisted := map[string][]int{}
			for c := range differ {
				if _, ok := listed[c.field][c.row]; !ok {
					unlisted[c.field] = append(unlisted[c.field], c.row)
				}
			}
			for _, field := range sortedKeys(unlisted) {
				t.Errorf("follows host order but is not in hostorder.allow: %s %s %s", p.name, field, rowList(unlisted[field]))
			}
			for _, field := range sortedKeys(listed) {
				for _, row := range sortedKeys(listed[field]) {
					n, rare := differ[cell{row, field}], listed[field][row]
					t.Logf("differ %s %s %d: %d/%d", p.name, field, row, n, runs)
					if n == 0 && !rare && !testing.Short() {
						t.Errorf("listed in hostorder.allow but never differed in %d runs, remove it: %s %s %d", runs, p.name, field, row)
					}
				}
			}
		})
	}
	if testing.Short() {
		return
	}
	for name := range allow {
		if !slices.ContainsFunc(progs, func(p ratchetProgram) bool { return p.name == name }) {
			t.Errorf("hostorder.allow names program %q, which the ratchet does not run", name)
		}
	}
	for _, site := range touchSites {
		if reached[site] == 0 {
			t.Errorf("touch site %q reached by no program", site)
		}
		delete(reached, site)
	}
	for site := range reached {
		t.Errorf("touch site %q is not in touchSites", site)
	}
}
