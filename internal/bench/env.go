package bench

import (
	"errors"
	"fmt"
	"reflect"
	"sync"

	"github.com/tcio/tcio/internal/cluster"
	"github.com/tcio/tcio/internal/delegate"
	"github.com/tcio/tcio/internal/faults"
	"github.com/tcio/tcio/internal/mpi"
	"github.com/tcio/tcio/internal/netsim"
	"github.com/tcio/tcio/internal/pfs"
	"github.com/tcio/tcio/internal/simtime"
	"github.com/tcio/tcio/internal/stats"
	"github.com/tcio/tcio/internal/tcio"
)

// Env is a simulated environment scaled so that paper-sized datasets fit a
// test process: real sizes are simulated sizes divided by Scale.
type Env struct {
	Machine cluster.Machine
	FS      *pfs.FileSystem
	Scale   int64
	// Faults, when non-nil, arms chaos injection across the environment's
	// hardware for every run.
	Faults  *faults.Injector
	LenReal int // materialized LENarray of an environment sized from EnvSpec.LenSim; 0 otherwise
}

// NewEnv builds a Lonestar-like environment with the given byte scale.
// The file system stripe (and hence TCIO's default segment size) shrinks by
// the same factor, preserving message and request counts.
func NewEnv(scale int64) (*Env, error) {
	if scale < 1 || (1<<20)%scale != 0 {
		return nil, fmt.Errorf("bench: scale %d must divide 1 MiB", scale)
	}
	m := cluster.Lonestar()
	m.ByteScale = scale
	fscfg := pfs.DefaultConfig()
	fscfg.ByteScale = scale
	fscfg.StripeSize = (1 << 20) / scale
	fscfg.ReadAhead = fscfg.StripeSize
	return &Env{Machine: m, FS: pfs.New(fscfg), Scale: scale}, nil
}

// EnvSpec is what a sweep point asks of its environment.
type EnvSpec struct {
	// LenSim is the paper-scale LENarray in elements; the byte scale is
	// LenSim / Options.LenReal.
	LenSim int
	// Scale is the byte scale of sweeps whose geometry is given in real
	// bytes (used when LenSim is 0).
	Scale int64
	// Faults, when non-nil, is armed across the environment (the chaos
	// sweep's injector).
	Faults *faults.Injector
}

// chaosRules are the background fault probabilities of the chaos sweep; the
// OST error rate is set per injector.
type chaosRules map[faults.Site]faults.Rule

var defaultChaosRules = chaosRules{
	faults.SiteOSTSlow:  {Prob: 0.02, Factor: 8}, // slow OST services: service time x Factor
	faults.SiteNetSetup: {Prob: 0.01},            // dropped connection setups (NIC-retried)
	faults.SiteMemAlloc: {Prob: 0.005},           // transient allocation pressure
	faults.SiteWinPut:   {Prob: 0.01},            // dropped one-sided puts (library-retried)
}

// injector builds a seeded injector whose OST reads and writes fail at
// rate. Every injection decision derives from the seed, so two runs with
// the same seed produce identical injection and retry counts.
func (r chaosRules) injector(seed int64, rate float64) *faults.Injector {
	inj := faults.New(seed).
		Set(faults.SiteOSTWrite, faults.Rule{Prob: rate}).
		Set(faults.SiteOSTRead, faults.Rule{Prob: rate})
	for site, rule := range r {
		inj.Set(site, rule)
	}
	return inj
}

// byteScale is the byte scale at which -len-real materialized elements
// stand for a simulated LENarray of lenSim, or the error naming a
// -len-real that cannot.
func (o Options) byteScale(lenSim int) (int64, error) {
	if o.LenReal < 1 || lenSim%o.LenReal != 0 {
		return 0, fmt.Errorf("bench: len-real %d must be positive and divide LENarray %d", o.LenReal, lenSim)
	}
	return int64(lenSim / o.LenReal), nil
}

// newEnv builds the environment a point asked for: the byte scale is
// computed and checked here, once, and an injector is armed on the file
// system, the network and the memory accountant alike.
func (o Options) newEnv(spec EnvSpec) (*Env, error) {
	scale, lenReal := spec.Scale, 0
	if spec.LenSim > 0 {
		var err error
		if scale, err = o.byteScale(spec.LenSim); err != nil {
			return nil, err
		}
		lenReal = o.LenReal
	}
	env, err := NewEnv(scale)
	if err != nil {
		return nil, err
	}
	env.LenReal = lenReal
	env.Faults = spec.Faults
	if env.Faults != nil {
		fscfg := env.FS.Config()
		fscfg.Faults = env.Faults
		env.FS = pfs.New(fscfg)
	}
	return env, nil
}

// PhaseResult captures one world's run: one phase (write or read) of a
// benchmark point.
type PhaseResult struct {
	SimBytes     int64 // data moved, in simulated bytes
	Time         simtime.Duration
	MBs          float64 // aggregate throughput, MBytes/sec (simulated)
	Failed       bool
	FailReason   string
	Omitted      string // stands in for the throughput in tables (the paper's ">90 minutes" rule)
	Net          netsim.Stats
	FS           pfs.Stats
	PeakMemory   int64 // simulated bytes, max over ranks
	AllocRetries int64 // transient allocation pressure the runtime's backoff absorbed (armed runs only)
	Injected     int64 // faults the environment's injector fired during the run
	// TCIO and Client total what the ranks reported to the run's Tally;
	// Servers totals a delegation Collector (see serverTotals).
	TCIO    tcio.Stats
	Client  delegate.Stats
	Servers delegate.ServerStats
}

// Tally totals the per-rank library counters of one run.
type Tally struct {
	mu     sync.Mutex
	tcio   tcio.Stats
	client delegate.Stats
}

// TCIO adds one rank's tcio counters.
func (t *Tally) TCIO(s tcio.Stats) { t.add(&t.tcio, s) }

// Client adds one delegation client file's counters.
func (t *Tally) Client(s delegate.Stats) { t.add(&t.client, s) }

func (t *Tally) add(dst, src any) {
	t.mu.Lock()
	defer t.mu.Unlock()
	accumulate(dst, src)
}

// serverTotals totals a delegation run's per-server counters.
func serverTotals(col *delegate.Collector) delegate.ServerStats {
	var sum delegate.ServerStats
	for _, s := range col.Servers() {
		accumulate(&sum, s)
	}
	return sum
}

var durationType = reflect.TypeOf(simtime.Duration(0))

// accumulate folds src (a stats struct) into *dst field by field: counts
// sum, virtual durations keep the maximum over ranks (comparable to the
// makespan, which is also a maximum). Walking the fields means a counter a
// library adds is totalled without the harness naming it.
func accumulate(dst, src any) {
	d, s := reflect.ValueOf(dst).Elem(), reflect.ValueOf(src)
	for i := 0; i < d.NumField(); i++ {
		switch f := d.Field(i); {
		case f.Type() == durationType:
			if v := s.Field(i).Int(); v > f.Int() {
				f.SetInt(v)
			}
		case f.Kind() == reflect.Int64:
			f.SetInt(f.Int() + s.Field(i).Int())
		}
	}
}

// Run executes fn on procs ranks of a fresh world in the environment —
// memory enforced (the paper's Fig. 6/7 failure mode depends on it), the
// injector armed — and folds the world's report into a PhaseResult. A
// failed run reports its reason and the memory it reached, nothing else:
// how far peers got after the first failure is a host race.
func (e *Env) Run(procs int, simBytes int64, fn func(*mpi.Comm, *Tally) error) PhaseResult {
	pr := PhaseResult{SimBytes: simBytes}
	var t Tally
	before := e.Faults.TotalInjected()
	rep, err := mpi.Run(mpi.Config{
		Procs:         procs,
		Machine:       e.Machine,
		FS:            e.FS,
		EnforceMemory: true,
		Faults:        e.Faults,
	}, func(c *mpi.Comm) error { return fn(c, &t) })
	pr.Injected = e.Faults.TotalInjected() - before
	pr.PeakMemory = rep.PeakMemory
	pr.TCIO, pr.Client = t.tcio, t.client
	if err != nil {
		pr.Failed, pr.FailReason = true, failReason(err)
		return pr
	}
	pr.Time = rep.MaxTime.Sub(0)
	pr.MBs = stats.ThroughputMBs(simBytes, pr.Time)
	pr.Net = rep.Net
	pr.FS = rep.FS
	pr.AllocRetries = rep.AllocRetries
	return pr
}

// reasonOOM is the failure reason of a run that exceeded simulated memory.
const reasonOOM = "out of memory"

func failReason(err error) string {
	if errors.Is(err, cluster.ErrOutOfMemory) {
		return reasonOOM
	}
	if errors.Is(err, faults.ErrExhaustedRetries) {
		return "retries exhausted"
	}
	if errors.Is(err, mpi.ErrAborted) {
		return "aborted"
	}
	return err.Error()
}
