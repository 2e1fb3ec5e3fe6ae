package faults

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"
	"testing/quick"

	"github.com/tcio/tcio/internal/simtime"
)

func TestNilInjectorIsInert(t *testing.T) {
	var in *Injector
	if in.Should(SiteOSTWrite, 1, 2, 3) {
		t.Fatal("nil injector injected")
	}
	if in.ShouldNext(SiteNetSetup, 0, 1) {
		t.Fatal("nil injector injected from stream")
	}
	if in.Enabled(SiteOSTRead) {
		t.Fatal("nil injector enabled")
	}
	if got := in.Factor(SiteOSTSlow); got != 1 {
		t.Fatalf("nil Factor = %v", got)
	}
	if in.TotalInjected() != 0 {
		t.Fatal("nil injector has state")
	}
	if in.Set(SiteOSTWrite, Rule{Prob: 1}) != nil {
		t.Fatal("nil Set returned non-nil")
	}
}

func TestShouldIsDeterministic(t *testing.T) {
	a := New(42).Set(SiteOSTWrite, Rule{Prob: 0.3})
	b := New(42).Set(SiteOSTWrite, Rule{Prob: 0.3})
	for off := int64(0); off < 2000; off++ {
		if a.Should(SiteOSTWrite, 7, off, 64, 0) != b.Should(SiteOSTWrite, 7, off, 64, 0) {
			t.Fatalf("divergent decision at off=%d", off)
		}
	}
	if a.Injected(SiteOSTWrite) != b.Injected(SiteOSTWrite) {
		t.Fatalf("divergent counts: %d vs %d", a.Injected(SiteOSTWrite), b.Injected(SiteOSTWrite))
	}
	if a.Injected(SiteOSTWrite) == 0 {
		t.Fatal("rate 0.3 over 2000 ops injected nothing")
	}
}

func TestSeedsDiffer(t *testing.T) {
	a := New(1).Set(SiteOSTWrite, Rule{Prob: 0.5})
	b := New(2).Set(SiteOSTWrite, Rule{Prob: 0.5})
	same := 0
	const n = 1000
	for off := int64(0); off < n; off++ {
		if a.Should(SiteOSTWrite, 0, off, 1, 0) == b.Should(SiteOSTWrite, 0, off, 1, 0) {
			same++
		}
	}
	if same == n {
		t.Fatal("different seeds made identical decisions")
	}
}

func TestRollRateConverges(t *testing.T) {
	for _, prob := range []float64{0.05, 0.5, 0.9} {
		in := New(7).Set(SiteOSTRead, Rule{Prob: prob})
		const n = 20000
		for off := int64(0); off < n; off++ {
			in.Should(SiteOSTRead, 3, off, 8, 0)
		}
		got := float64(in.Injected(SiteOSTRead)) / n
		if math.Abs(got-prob) > 0.02 {
			t.Fatalf("prob %v: injected rate %v", prob, got)
		}
	}
}

func TestAttemptKeyGivesFreshRolls(t *testing.T) {
	// A faulted operation must be able to succeed on retry: the attempt
	// number is part of the key, so rolls differ across attempts.
	in := New(99).Set(SiteOSTWrite, Rule{Prob: 0.5})
	varies := false
	for off := int64(0); off < 64 && !varies; off++ {
		first := in.Should(SiteOSTWrite, 0, off, 1, 0)
		for attempt := int64(1); attempt < 8; attempt++ {
			if in.Should(SiteOSTWrite, 0, off, 1, attempt) != first {
				varies = true
				break
			}
		}
	}
	if !varies {
		t.Fatal("attempt number does not vary the decision")
	}
}

func TestMaxInjectedBoundsStorm(t *testing.T) {
	in := New(5).Set(SiteLockStorm, Rule{Prob: 1, MaxInjected: 3})
	fired := 0
	for i := int64(0); i < 100; i++ {
		if in.Should(SiteLockStorm, i) {
			fired++
		}
	}
	if fired != 3 {
		t.Fatalf("MaxInjected=3 fired %d times", fired)
	}
}

func TestStreamCountsDeterministicUnderConcurrency(t *testing.T) {
	// Concurrent callers race for draws, but the total injected count is a
	// pure function of the seed and the number of draws.
	count := func() int64 {
		in := New(11).Set(SiteNetSetup, Rule{Prob: 0.2})
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 500; i++ {
					in.ShouldNext(SiteNetSetup, 1, 2)
				}
			}()
		}
		wg.Wait()
		return in.Injected(SiteNetSetup)
	}
	first := count()
	if first == 0 {
		t.Fatal("no faults at 20% over 4000 draws")
	}
	for i := 0; i < 3; i++ {
		if got := count(); got != first {
			t.Fatalf("run %d: %d faults, want %d", i, got, first)
		}
	}
}

func TestFaultErrorTyping(t *testing.T) {
	in := New(0)
	err := in.Fault(SiteOSTWrite, "off=%d", 42)
	if !IsTransient(err) {
		t.Fatal("fault not transient")
	}
	wrapped := fmt.Errorf("pfs: %w", err)
	if !errors.Is(wrapped, ErrInjected) {
		t.Fatal("wrapping lost ErrInjected")
	}
	var f *Fault
	if !errors.As(wrapped, &f) || f.Site != SiteOSTWrite {
		t.Fatalf("errors.As failed: %v", wrapped)
	}
	exhausted := Exhausted(3, wrapped)
	if !errors.Is(exhausted, ErrExhaustedRetries) || !errors.Is(exhausted, ErrInjected) {
		t.Fatalf("Exhausted lost a sentinel: %v", exhausted)
	}
}

func TestBackoffShape(t *testing.T) {
	p := RetryPolicy{MaxRetries: 10, BaseDelay: 100, MaxDelay: 1000, Multiplier: 2}
	want := []simtime.Duration{100, 200, 400, 800, 1000, 1000}
	for i, w := range want {
		if got := p.Backoff(i + 1); got != w {
			t.Fatalf("Backoff(%d) = %v, want %v", i+1, got, w)
		}
	}
	if p.Backoff(0) != 0 {
		t.Fatal("Backoff(0) != 0")
	}
	if (RetryPolicy{}).Backoff(3) != 0 {
		t.Fatal("zero policy backoff != 0")
	}
	// Default multiplier is 2 when unset.
	q := RetryPolicy{BaseDelay: 100}
	if q.Backoff(3) != 400 {
		t.Fatalf("default multiplier: Backoff(3) = %v", q.Backoff(3))
	}
}

func TestBackoffMonotonic(t *testing.T) {
	p := DefaultRetryPolicy()
	err := quick.Check(func(raw uint8) bool {
		a := int(raw%30) + 1
		return p.Backoff(a+1) >= p.Backoff(a)
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestCountsStringStable(t *testing.T) {
	in := New(3).
		Set(SiteOSTWrite, Rule{Prob: 1}).
		Set(SiteNetSetup, Rule{Prob: 1})
	in.Should(SiteOSTWrite, 1)
	in.Should(SiteOSTWrite, 2)
	in.ShouldNext(SiteNetSetup, 0, 0)
	if got, want := in.CountsString(), "net.setup=1 ost.write=2"; got != want {
		t.Fatalf("CountsString = %q, want %q", got, want)
	}
}
