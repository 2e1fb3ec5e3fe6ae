// Package faults is the simulator's deterministic fault-injection engine.
//
// Real Lustre deployments lose OST requests, serve them slowly, revoke
// extent locks in storms, drop connection setups, and put transient
// pressure on node memory. The paper's robustness claims (OCIO's OOM
// collapse at 48 GB, the all-to-all incast at P >= 512) are only half the
// story without those failure modes, so every hardware layer of the
// simulator (pfs, netsim, cluster) consults a shared Injector before
// serving a request.
//
// Determinism is the design constraint: chaos runs must replay exactly
// from a seed even though ranks are concurrent goroutines whose real-time
// interleaving varies run to run. The engine therefore never draws from a
// shared sequential RNG. It offers two decision primitives:
//
//   - Roll(site, keys...) hashes (seed, site, keys) into a uniform float.
//     Callers pass stable operation identity — client, offset, length,
//     attempt number — so the decision for a given operation is a pure
//     function of the seed, independent of goroutine scheduling. Retries
//     pass an incremented attempt and get a fresh roll.
//
//   - NextRoll(site, a, b) draws from a per-(site,a,b) counter-indexed
//     stream. Which concurrent operation receives which draw may vary
//     between runs, but the multiset of draws — and therefore every
//     aggregate fault count — is fixed by the seed.
//
// Time is virtual throughout: injected timeouts and retry backoff charge
// simulated nanoseconds, never wall-clock sleeps, so chaos tests run as
// fast as clean ones.
//
// A nil *Injector is valid everywhere and injects nothing, so production
// paths pay one nil check when chaos is off.
package faults

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"github.com/tcio/tcio/internal/simtime"
)

// Site names one injection point. Each site has its own rule and its own
// decision streams, so an experiment can, say, fail 5% of OST writes while
// leaving reads clean.
type Site string

// Injection sites known to the simulator's layers.
const (
	// SiteOSTWrite fails an OST write RPC with a transient error.
	SiteOSTWrite Site = "ost.write"
	// SiteOSTRead fails an OST read RPC with a transient error.
	SiteOSTRead Site = "ost.read"
	// SiteOSTSlow multiplies one request's OST service time by Factor.
	SiteOSTSlow Site = "ost.slow"
	// SiteLockStorm turns one extent-lock revocation into a storm costing
	// Factor revocation round trips.
	SiteLockStorm Site = "ost.lockstorm"
	// SiteNetSetup fails a connection setup; the NIC retries after a
	// timeout, charged in virtual time.
	SiteNetSetup Site = "net.setup"
	// SiteNetSlow multiplies one transfer's wire time by Factor.
	SiteNetSlow Site = "net.slow"
	// SiteMemAlloc fails a simulated allocation with transient pressure
	// (batch-system neighbours ballooning, page-cache spikes).
	SiteMemAlloc Site = "mem.alloc"
	// SiteWinPut fails a one-sided put epoch transiently (NIC work-request
	// drop); the I/O library retries with backoff.
	SiteWinPut Site = "win.put"
	// SiteWALTruncate fails the journal-truncate RPC that retires a file's
	// WAL after its final drain settles; the library retries with backoff.
	SiteWALTruncate Site = "wal.truncate"
)

// Rule configures one site.
type Rule struct {
	// Prob is the probability in [0,1] that an operation at the site
	// faults.
	Prob float64
	// Factor scales the site's effect where one applies: the service-time
	// multiplier of SiteOSTSlow/SiteNetSlow, the revocation count of
	// SiteLockStorm. Sites that only fail ignore it.
	Factor float64
	// MaxInjected, when positive, stops the site after that many injected
	// faults — a bounded storm. The cap is checked with an atomic counter,
	// so which concurrent operation crosses it can vary between runs; leave
	// it zero in runs that must replay with identical per-operation
	// outcomes.
	MaxInjected int64
}

// Fault is the typed error carried by every injected failure. It wraps
// ErrInjected so errors.Is recognizes any injected cause through arbitrary
// wrapping.
type Fault struct {
	// Site is the injection point that fired.
	Site Site
	// Detail describes the failed operation (offset, target, ...).
	Detail string
}

// Error formats the fault.
func (f *Fault) Error() string {
	if f.Detail == "" {
		return fmt.Sprintf("injected fault at %s", f.Site)
	}
	return fmt.Sprintf("injected fault at %s (%s)", f.Site, f.Detail)
}

// Unwrap marks the fault as transient.
func (f *Fault) Unwrap() error { return ErrInjected }

// ErrInjected is the sentinel wrapped by every injected transient fault.
var ErrInjected = errors.New("faults: injected transient fault")

// IsTransient reports whether err is (or wraps) an injected transient
// fault — the class a retry policy is allowed to absorb.
func IsTransient(err error) bool { return errors.Is(err, ErrInjected) }

// Injector decides, deterministically from its seed, which operations
// fault. All methods are safe for concurrent use and safe on a nil
// receiver (a nil injector injects nothing).
type Injector struct {
	seed int64

	mu    sync.RWMutex
	rules map[Site]Rule

	cmu      sync.Mutex
	injected map[Site]int64
	streams  map[streamKey]int64
}

type streamKey struct {
	site Site
	a, b int64
}

// New creates an injector for the given seed. Two injectors with the same
// seed and rules make identical decisions.
func New(seed int64) *Injector {
	return &Injector{
		seed:     seed,
		rules:    make(map[Site]Rule),
		injected: make(map[Site]int64),
		streams:  make(map[streamKey]int64),
	}
}

// Set installs (or replaces) the rule for a site. A Prob of 0 disables it.
func (in *Injector) Set(site Site, r Rule) *Injector {
	if in == nil {
		return nil
	}
	in.mu.Lock()
	in.rules[site] = r
	in.mu.Unlock()
	return in
}

// Rule returns the site's rule (zero value when unset).
func (in *Injector) Rule(site Site) Rule {
	if in == nil {
		return Rule{}
	}
	in.mu.RLock()
	defer in.mu.RUnlock()
	return in.rules[site]
}

// Enabled reports whether the site has a non-zero fault probability.
func (in *Injector) Enabled(site Site) bool {
	return in.Rule(site).Prob > 0
}

// splitmix64 is the finalizer of the SplitMix64 generator: a full-avalanche
// 64-bit mixer, the standard way to turn structured keys into uniform bits.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// hashSite folds a site name into 64 bits (FNV-1a).
func hashSite(s Site) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// uniform converts hash state into a float in [0,1).
func uniform(h uint64) float64 { return float64(h>>11) / (1 << 53) }

// roll hashes the seed, site, and keys into a uniform [0,1) float.
func (in *Injector) roll(site Site, keys []int64) float64 {
	h := splitmix64(uint64(in.seed) ^ hashSite(site))
	for _, k := range keys {
		h = splitmix64(h ^ uint64(k))
	}
	return uniform(h)
}

// Should decides whether the operation identified by keys faults at site.
// The decision is a pure function of (seed, site, keys): callers pass the
// operation's stable identity (client, offset, length, attempt) and get a
// replay-exact answer regardless of scheduling. It also counts the
// injection and enforces the site's MaxInjected cap.
func (in *Injector) Should(site Site, keys ...int64) bool {
	if in == nil {
		return false
	}
	r := in.Rule(site)
	if r.Prob <= 0 || in.roll(site, keys) >= r.Prob {
		return false
	}
	return in.countInjection(site, r)
}

// NextRoll draws the next value of the per-(site,a,b) stream. Aggregate
// outcomes are seed-deterministic even when concurrent callers race for
// draws; see the package comment.
func (in *Injector) NextRoll(site Site, a, b int64) float64 {
	in.cmu.Lock()
	k := streamKey{site: site, a: a, b: b}
	n := in.streams[k] + 1
	in.streams[k] = n
	in.cmu.Unlock()
	return in.roll(site, []int64{a, b, n})
}

// ShouldNext decides a fault from the per-(site,a,b) stream, counting it
// like Should.
func (in *Injector) ShouldNext(site Site, a, b int64) bool {
	if in == nil {
		return false
	}
	r := in.Rule(site)
	if r.Prob <= 0 || in.NextRoll(site, a, b) >= r.Prob {
		return false
	}
	return in.countInjection(site, r)
}

// countInjection records one injected fault, honouring MaxInjected.
func (in *Injector) countInjection(site Site, r Rule) bool {
	in.cmu.Lock()
	defer in.cmu.Unlock()
	if r.MaxInjected > 0 && in.injected[site] >= r.MaxInjected {
		return false
	}
	in.injected[site]++
	return true
}

// Factor returns the site's effect multiplier, defaulting to 1 when the
// rule leaves it unset or nonsensical.
func (in *Injector) Factor(site Site) float64 {
	f := in.Rule(site).Factor
	if f < 1 {
		return 1
	}
	return f
}

// Fault builds the typed error for an injection at site.
func (in *Injector) Fault(site Site, format string, args ...interface{}) error {
	return &Fault{Site: site, Detail: fmt.Sprintf(format, args...)}
}

// Injected reports how many faults the site has injected.
func (in *Injector) Injected(site Site) int64 {
	if in == nil {
		return 0
	}
	in.cmu.Lock()
	defer in.cmu.Unlock()
	return in.injected[site]
}

// Counts returns a snapshot of every site's injection count.
func (in *Injector) Counts() map[Site]int64 {
	out := make(map[Site]int64)
	if in == nil {
		return out
	}
	in.cmu.Lock()
	defer in.cmu.Unlock()
	for s, n := range in.injected {
		out[s] = n
	}
	return out
}

// TotalInjected sums all sites' injection counts.
func (in *Injector) TotalInjected() int64 {
	var total int64
	for _, n := range in.Counts() {
		total += n
	}
	return total
}

// CountsString renders the injection counts in stable site order — the
// reproducibility fingerprint chaos runs print and compare.
func (in *Injector) CountsString() string {
	counts := in.Counts()
	sites := make([]string, 0, len(counts))
	for s := range counts {
		sites = append(sites, string(s))
	}
	sort.Strings(sites)
	out := ""
	for i, s := range sites {
		if i > 0 {
			out += " "
		}
		out += fmt.Sprintf("%s=%d", s, counts[Site(s)])
	}
	return out
}

// RetryPolicy bounds how a client absorbs transient faults: a per-request
// retry budget, capped exponential backoff between attempts, and an
// optional virtual-time deadline for the whole request.
type RetryPolicy struct {
	// MaxRetries is the retry budget per request (0 = fail on the first
	// transient fault).
	MaxRetries int
	// BaseDelay is the backoff before the first retry.
	BaseDelay simtime.Duration
	// MaxDelay caps the exponential growth (0 = uncapped).
	MaxDelay simtime.Duration
	// Multiplier grows the delay per attempt (values < 1 mean 2).
	Multiplier float64
	// Deadline, when positive, fails the request once the virtual time
	// spent on it (including backoff) exceeds this budget, even with
	// retries remaining.
	Deadline simtime.Duration
}

// DefaultRetryPolicy returns the policy the I/O libraries use unless
// overridden: 8 retries, 200 µs growing 2x to a 25 ms cap, 2 s deadline.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{
		MaxRetries: 8,
		BaseDelay:  200 * simtime.Microsecond,
		MaxDelay:   25 * simtime.Millisecond,
		Multiplier: 2,
		Deadline:   2 * simtime.Second,
	}
}

// NoRetry returns the zero-budget policy: every transient fault is
// immediately permanent.
func NoRetry() RetryPolicy { return RetryPolicy{} }

// Backoff returns the delay before retry attempt (1-based): capped
// exponential, deterministic. Jitter is deliberately absent — determinism
// outranks thundering-herd smoothing in a simulator, and the virtual-time
// resource queues already spread contending retries.
func (p RetryPolicy) Backoff(attempt int) simtime.Duration {
	if attempt < 1 || p.BaseDelay <= 0 {
		return 0
	}
	mult := p.Multiplier
	if mult < 1 {
		mult = 2
	}
	d := float64(p.BaseDelay)
	for i := 1; i < attempt; i++ {
		d *= mult
		if p.MaxDelay > 0 && d >= float64(p.MaxDelay) {
			return p.MaxDelay
		}
	}
	if p.MaxDelay > 0 && d > float64(p.MaxDelay) {
		return p.MaxDelay
	}
	return simtime.Duration(d)
}

// Retry drives one operation through the policy's attempt loop in virtual
// time. op is called with the virtual instant at which the attempt departs
// and the zero-based attempt number; it returns the attempt's completion
// time and its error. Transient errors (IsTransient) are absorbed with the
// policy's capped exponential backoff until the operation succeeds, a
// permanent error surfaces, the retry budget is spent, or the policy's
// deadline passes; the count of absorbed faults is returned alongside the
// final completion time.
//
// This is the single retry loop shared by every layer: the file system's
// request retries (pfs), the I/O libraries' one-sided put retries (tcio),
// and the storage backend's extent transfers all delegate here instead of
// keeping near-copies.
func Retry(now simtime.Time, pol RetryPolicy, op func(at simtime.Time, attempt int64) (simtime.Time, error)) (simtime.Time, int64, error) {
	start := now
	var retries int64
	for attempt := 0; ; attempt++ {
		end, err := op(now, int64(attempt))
		if err == nil || !IsTransient(err) {
			return end, retries, err
		}
		if attempt >= pol.MaxRetries {
			return end, retries, Exhausted(attempt, err)
		}
		next := end.Add(pol.Backoff(attempt + 1))
		if pol.Deadline > 0 && next.Sub(start) > pol.Deadline {
			return end, retries, Exhausted(attempt,
				fmt.Errorf("virtual-time deadline %v exceeded: %w", pol.Deadline, err))
		}
		now = next
		retries++
	}
}

// ErrExhaustedRetries is the sentinel wrapped by errors returned when a
// request's retry budget or deadline is spent. The returned error also
// wraps the final injected cause, so callers can errors.Is against either.
var ErrExhaustedRetries = errors.New("faults: retry budget exhausted")

// Exhausted wraps the final cause of a request that ran out of retry
// budget after the given number of retries.
func Exhausted(retries int, cause error) error {
	return fmt.Errorf("%w (%d retries): %w", ErrExhaustedRetries, retries, cause)
}
