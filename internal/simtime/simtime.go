// Package simtime provides the virtual-time foundation of the simulator.
//
// Every MPI rank owns a Clock that advances only when the rank performs
// work: computation, communication, or file I/O. Shared hardware (NICs,
// fabric links, storage targets) is modelled as Resource queues: a rank
// asking for service at virtual time t is served no earlier than the moment
// the resource becomes free, which is how contention turns into elapsed
// virtual time. Communication between ranks carries timestamps, so causality
// propagates with the data (LogGOPSim-style conservative simulation).
package simtime

import (
	"fmt"
	"sync"
	"time"
)

// Time is a point in virtual time, in nanoseconds since simulation start.
type Time int64

// Duration is a span of virtual time in nanoseconds. It is deliberately a
// distinct type from time.Duration so that real and simulated time cannot be
// mixed by accident.
type Duration int64

// Common durations.
const (
	Nanosecond  Duration = 1
	Microsecond          = 1000 * Nanosecond
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
)

// Seconds reports the duration as floating-point seconds.
func (d Duration) Seconds() float64 { return float64(d) / float64(Second) }

// String formats the duration using time.Duration's human-readable form.
func (d Duration) String() string { return time.Duration(d).String() }

// Add returns t shifted by d.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration t-u.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// String formats the instant as an offset from simulation start.
func (t Time) String() string { return fmt.Sprintf("+%v", time.Duration(t)) }

// Max returns the later of two instants.
func Max(a, b Time) Time {
	if a > b {
		return a
	}
	return b
}

// BytesDuration returns the time needed to move n bytes at bw bytes/second.
// A non-positive bandwidth means "infinitely fast" and costs nothing.
func BytesDuration(n int64, bw float64) Duration {
	if bw <= 0 || n <= 0 {
		return 0
	}
	return Duration(float64(n) / bw * float64(Second))
}

// Clock is one rank's private virtual clock. Clocks only move forward.
// A Clock is not safe for concurrent use; each rank goroutine owns its own.
type Clock struct {
	now Time
}

// NewClock returns a clock positioned at the simulation start.
func NewClock() *Clock { return &Clock{} }

// Now reports the current virtual time.
func (c *Clock) Now() Time { return c.now }

// Advance moves the clock forward by d. Negative d is ignored: time never
// runs backwards, and charging a zero-or-negative cost is a no-op.
func (c *Clock) Advance(d Duration) Time {
	if d > 0 {
		c.now = c.now.Add(d)
	}
	return c.now
}

// AdvanceTo moves the clock forward to t if t is in the clock's future.
func (c *Clock) AdvanceTo(t Time) Time {
	if t > c.now {
		c.now = t
	}
	return c.now
}

// Resource is a shared serial server: one NIC, storage target or metadata
// server. Acquire reserves it for a duration, returning when the work starts
// and ends. It serves in call order, not virtual-time order: a request
// stamped earlier that calls later waits behind a later-stamped one, so the
// outcome follows host goroutine order (internal/bench's
// TestHostOrderRatchet names what moves). Safe for concurrent use.
type Resource struct {
	mu       sync.Mutex
	name     string
	nextFree Time
	busy     Duration // total busy time, for utilization reporting
	requests int64
}

// NewResource creates a named serial resource.
func NewResource(name string) *Resource { return &Resource{name: name} }

// Acquire reserves the resource for dur starting no earlier than now.
// It returns the start and end instants of the reserved service window.
func (r *Resource) Acquire(now Time, dur Duration) (start, end Time) {
	if dur < 0 {
		dur = 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	start = Max(now, r.nextFree)
	end = start.Add(dur)
	r.nextFree = end
	r.busy += dur
	r.requests++
	return start, end
}

// Stats reports the accumulated busy time and request count.
func (r *Resource) Stats() (busy Duration, requests int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.busy, r.requests
}

// Reset clears the resource queue and statistics, for reuse across runs.
func (r *Resource) Reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.nextFree = 0
	r.busy = 0
	r.requests = 0
}
