package bench

import (
	"strings"
	"testing"

	"github.com/tcio/tcio/internal/datatype"
	"github.com/tcio/tcio/internal/simtime"
)

func smallSweepCfg(m Method, procs int, name string) SyntheticConfig {
	return SyntheticConfig{
		Method:     m,
		Procs:      procs,
		TypeArray:  []datatype.Type{datatype.Int, datatype.Double},
		LenArray:   256,
		SizeAccess: 1,
		Verify:     true,
		FileName:   name,
	}
}

func TestSyntheticConfigDerived(t *testing.T) {
	cfg := smallSweepCfg(MethodTCIO, 4, "x")
	if cfg.blockSize() != 12 {
		t.Fatalf("blockSize = %d", cfg.blockSize())
	}
	if cfg.iters() != 256 {
		t.Fatalf("iters = %d", cfg.iters())
	}
	if cfg.FileBytes() != 12*256*4 {
		t.Fatalf("FileBytes = %d", cfg.FileBytes())
	}
}

func TestSyntheticValidate(t *testing.T) {
	bad := smallSweepCfg(MethodTCIO, 0, "x")
	if err := bad.validate(); err == nil {
		t.Fatal("0 procs accepted")
	}
	bad = smallSweepCfg(MethodTCIO, 2, "x")
	bad.SizeAccess = 3 // does not divide LenArray=256
	if err := bad.validate(); err == nil {
		t.Fatal("non-dividing SizeAccess accepted")
	}
	bad = smallSweepCfg(MethodTCIO, 2, "")
	if err := bad.validate(); err == nil {
		t.Fatal("empty file name accepted")
	}
}

func TestNewEnvValidation(t *testing.T) {
	if _, err := NewEnv(0); err == nil {
		t.Fatal("scale 0 accepted")
	}
	if _, err := NewEnv(3); err == nil {
		t.Fatal("non-divisor scale accepted")
	}
	env, err := NewEnv(256)
	if err != nil {
		t.Fatal(err)
	}
	if env.FS.Config().StripeSize != (1<<20)/256 {
		t.Fatalf("stripe = %d", env.FS.Config().StripeSize)
	}
}

// All three methods must produce identical file bytes and verified reads.
func TestAllMethodsRoundTripAndAgree(t *testing.T) {
	var snapshots [][]byte
	for _, m := range []Method{MethodTCIO, MethodOCIO, MethodVanilla} {
		env, err := NewEnv(64)
		if err != nil {
			t.Fatal(err)
		}
		cfg := smallSweepCfg(m, 4, "agree")
		res, err := RunSynthetic(env, cfg)
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if res.Write.Failed {
			t.Fatalf("%v write failed: %s", m, res.Write.FailReason)
		}
		if res.Read.Failed {
			t.Fatalf("%v read failed: %s", m, res.Read.FailReason)
		}
		if res.Write.MBs <= 0 || res.Read.MBs <= 0 {
			t.Fatalf("%v: non-positive throughput %v/%v", m, res.Write.MBs, res.Read.MBs)
		}
		snapshots = append(snapshots, env.FS.Open("agree").Snapshot())
	}
	for i := 1; i < len(snapshots); i++ {
		if string(snapshots[i]) != string(snapshots[0]) {
			t.Fatalf("method %d produced different file contents", i)
		}
	}
}

func TestVerificationCatchesCorruption(t *testing.T) {
	env, err := NewEnv(64)
	if err != nil {
		t.Fatal(err)
	}
	cfg := smallSweepCfg(MethodVanilla, 2, "corrupt")
	// Write correctly...
	res := runPhase(env, cfg, true)
	if res.Failed {
		t.Fatalf("write failed: %s", res.FailReason)
	}
	// ...then corrupt a byte behind the library's back.
	env.FS.Open("corrupt").WriteAt(0, 5, []byte{0xFF}, 0)
	read := runPhase(env, cfg, false)
	if !read.Failed {
		t.Fatal("corrupted file passed verification")
	}
}

func TestSizeAccessLargerThanOne(t *testing.T) {
	env, err := NewEnv(64)
	if err != nil {
		t.Fatal(err)
	}
	cfg := smallSweepCfg(MethodTCIO, 2, "sa4")
	cfg.SizeAccess = 4
	res, err := RunSynthetic(env, cfg)
	if err != nil || res.Write.Failed || res.Read.Failed {
		t.Fatalf("SizeAccess=4 run: %v %+v", err, res)
	}
}

func TestProgramLinesComparison(t *testing.T) {
	loc2, loc3 := ProgramLines()
	if loc2 == 0 || loc3 == 0 {
		t.Fatalf("LoC = %d/%d; markers missing?", loc2, loc3)
	}
	// The paper's Table III: OCIO requires substantially more code.
	if loc3 >= loc2 {
		t.Fatalf("TCIO program (%d lines) not shorter than OCIO (%d lines)", loc3, loc2)
	}
	r2, r3 := ProgramReadLines()
	if r3 >= r2 {
		t.Fatalf("TCIO read program (%d) not shorter than OCIO (%d)", r3, r2)
	}
}

func TestTables(t *testing.T) {
	for _, tb := range []struct {
		name string
		rows int
	}{
		{"t1", len(Table1().Rows)},
		{"t3", len(Table3().Rows)},
		{"t4", len(Table4().Rows)},
	} {
		if tb.rows == 0 {
			t.Fatalf("%s: empty table", tb.name)
		}
	}
	t2 := Table2(defaultFig5(), 4<<10)
	found := false
	for _, row := range t2.Rows {
		if row[0] == "SIZEaccess" && row[1] == "1" {
			found = true
		}
	}
	if !found {
		t.Fatal("Table2 missing SIZEaccess=1")
	}
}

func TestFig5SmallScale(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-point sweep")
	}
	rep, err := Run(fig5Sweep(&figGeometry{Procs: []int{4, 8}, LenSims: []int{64 << 10}}), Options{LenReal: 256})
	if err != nil {
		t.Fatal(err)
	}
	tables := rep.Tables(nil)
	if len(tables) != 2 || len(tables[0].Rows) != 2 || len(tables[1].Rows) != 2 {
		t.Fatalf("tables: %v", tables)
	}
	if len(rep.Rows) != 4 {
		t.Fatalf("results: %d", len(rep.Rows))
	}
	for _, r := range rep.Rows {
		if r.Failed || r.Read.Failed {
			t.Fatalf("point failed: %+v", r)
		}
	}
}

func TestFig6OOMReproduction(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-point sweep")
	}
	// Miniature of the paper's Fig. 6 48 GB point: per-rank simulated data
	// that OCIO's double buffering cannot fit but TCIO can. 12 processes are
	// one full node: 2 GiB per rank.
	rep, err := Run(fig67Sweep(&figGeometry{Procs: []int{12}, LenSims: []int{64 << 20}}), Options{LenReal: 1 << 10})
	if err != nil {
		t.Fatal(err)
	}
	write := rep.Tables(nil)[0]
	var tcioOK, ocioFailed bool
	for _, r := range rep.Rows {
		switch r.Point.(FigPoint).Method {
		case MethodTCIO:
			tcioOK = !r.Failed
		case MethodOCIO:
			ocioFailed = r.Failed && r.FailReason == "out of memory"
		}
	}
	if !tcioOK {
		t.Fatalf("TCIO failed the large-dataset point: %v", write.Rows)
	}
	if !ocioFailed {
		t.Fatalf("OCIO did not fail with OOM at the large-dataset point: %v", write.Rows)
	}
	// The rendered table must show the failure, as the paper's text does.
	joined := strings.Join(write.Rows[0], " ")
	if !strings.Contains(joined, "FAIL") {
		t.Fatalf("table does not show the failure: %q", joined)
	}
}

// artThroughput runs the ART sweep and returns each library's write and
// read MB/s at the geometry's one process count.
func artThroughput(t *testing.T, g *ARTGeometry) (write, read map[Method]float64) {
	t.Helper()
	rep, err := Run(ART(g), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if tables := rep.Tables(nil); len(tables[0].Rows) != 1 || len(tables[1].Rows) != 1 {
		t.Fatal("missing rows")
	}
	write, read = map[Method]float64{}, map[Method]float64{}
	for _, r := range rep.Rows {
		m := r.Point.(FigPoint).Method
		if r.Result != "ok" {
			t.Fatalf("%v failed: %s", m, r.Result)
		}
		write[m], read[m] = r.MBs, r.Read.MBs
	}
	return write, read
}

func TestARTSmallScale(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-point sweep")
	}
	write, _ := artThroughput(t, &ARTGeometry{Procs: []int{4}, Trees: 16, Vars: 2,
		MuCells: 128, SigmaCells: 16, Seed: 5, Scale: 32})
	if tcioW, vanW := write[MethodTCIO], write[MethodVanilla]; tcioW <= vanW {
		t.Fatalf("TCIO (%.1f MB/s) not faster than vanilla MPI-IO (%.1f MB/s) on ART", tcioW, vanW)
	}
}

// TestARTHeadlineFactor pins the paper's headline: at artbench's default
// 64-rank point TCIO beats vanilla MPI-IO by well over an order of
// magnitude (measured ~245x on write, ~110x on read). The band is wide
// because the vanilla column moves with host speed until virtual time is
// deterministic (ROADMAP item 1); tighten it then.
func TestARTHeadlineFactor(t *testing.T) {
	if testing.Short() {
		t.Skip("64-rank sweep")
	}
	g := DefaultART()
	g.Procs = []int{64}
	write, read := artThroughput(t, g)
	t.Logf("write %v MB/s, read %v MB/s", write, read)
	if f := write[MethodTCIO] / write[MethodVanilla]; f < 50 {
		t.Errorf("ART write: TCIO / MPI-IO = %.0fx, want >= 50x", f)
	}
	if f := read[MethodTCIO] / read[MethodVanilla]; f < 20 {
		t.Errorf("ART read: TCIO / MPI-IO = %.0fx, want >= 20x", f)
	}
}

// TestFig5Shape pins the shape of the paper's Figure 5 (ROADMAP 2(b), first
// row) on the Table II sweep: collective writes favour OCIO below the
// 512-rank crossover and TCIO from it on, and TCIO reads lead at every
// process count. Orderings only — the levels move with host arrival order
// until virtual time is deterministic (ROADMAP item 1).
func TestFig5Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("64..1024-rank sweep")
	}
	rep, err := Run(fig5Sweep(defaultFig5()), Options{LenReal: 1024})
	if err != nil {
		t.Fatal(err)
	}
	type point struct {
		procs  int
		method Method
	}
	write, read := map[point]float64{}, map[point]float64{}
	for _, r := range rep.Rows {
		p := r.Point.(FigPoint)
		if r.Result != "ok" {
			t.Fatalf("%v at %d ranks failed: %s", p.Method, p.Procs, r.Result)
		}
		write[point{p.Procs, p.Method}], read[point{p.Procs, p.Method}] = r.MBs, r.Read.MBs
	}
	for _, procs := range defaultFig5().Procs {
		tw, ow := write[point{procs, MethodTCIO}], write[point{procs, MethodOCIO}]
		if tcioAhead := tw > ow; tcioAhead != (procs >= 512) {
			t.Errorf("write at %d ranks: TCIO %.0f MB/s, OCIO %.0f MB/s; the crossover is at 512", procs, tw, ow)
		}
		if tr, or := read[point{procs, MethodTCIO}], read[point{procs, MethodOCIO}]; tr <= or {
			t.Errorf("read at %d ranks: TCIO %.0f MB/s not above OCIO %.0f MB/s", procs, tr, or)
		}
	}
}

// TestTableIIWriteTimeRepeats is the world-level twin of storage's
// TestPostedBatchesHostOrderIndependent: the 64-rank Table II TCIO write
// ends in one posted drain per rank against the file's one OST, so however
// the host interleaves the ranks the write phase takes the same virtual
// nanoseconds.
func TestTableIIWriteTimeRepeats(t *testing.T) {
	if testing.Short() {
		t.Skip("20 64-rank runs")
	}
	var first simtime.Duration
	for run := 0; run < 20; run++ {
		rep, err := Run(fig5Sweep(&figGeometry{Procs: []int{64}, LenSims: []int{4 << 20}}), Options{LenReal: 1024})
		if err != nil {
			t.Fatal(err)
		}
		r := rep.Rows[0]
		if p := r.Point.(FigPoint); p.Method != MethodTCIO || r.Result != "ok" {
			t.Fatalf("run %d: first row is %v, result %s", run, p.Method, r.Result)
		}
		if run == 0 {
			first = r.Time
		} else if r.Time != first {
			t.Fatalf("run %d: write phase took %d ns, run 0 took %d ns", run, int64(r.Time), int64(first))
		}
	}
}
