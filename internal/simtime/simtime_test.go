package simtime

import (
	"sync"
	"testing"
	"testing/quick"
)

func TestClockStartsAtZero(t *testing.T) {
	c := NewClock()
	if got := c.Now(); got != 0 {
		t.Fatalf("new clock at %v, want 0", got)
	}
}

func TestClockAdvance(t *testing.T) {
	c := NewClock()
	c.Advance(5 * Millisecond)
	if got := c.Now(); got != Time(5*Millisecond) {
		t.Fatalf("Now() = %v, want 5ms", got)
	}
	c.Advance(Second)
	want := Time(Second + 5*Millisecond)
	if got := c.Now(); got != want {
		t.Fatalf("Now() = %v, want %v", got, want)
	}
}

func TestClockAdvanceNegativeIgnored(t *testing.T) {
	c := NewClock()
	c.Advance(10)
	c.Advance(-100)
	if got := c.Now(); got != 10 {
		t.Fatalf("Now() = %v after negative advance, want 10", got)
	}
}

func TestClockAdvanceToNeverMovesBackwards(t *testing.T) {
	c := NewClock()
	c.AdvanceTo(100)
	c.AdvanceTo(50)
	if got := c.Now(); got != 100 {
		t.Fatalf("Now() = %v, want 100", got)
	}
}

func TestClockAdvanceToMonotoneProperty(t *testing.T) {
	f := func(steps []int64) bool {
		c := NewClock()
		prev := c.Now()
		for _, s := range steps {
			c.AdvanceTo(Time(s))
			if c.Now() < prev {
				return false
			}
			prev = c.Now()
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTimeDurationArithmetic(t *testing.T) {
	t0 := Time(0).Add(3 * Second)
	if t0.Sub(Time(Second)) != 2*Second {
		t.Fatalf("Sub wrong: %v", t0.Sub(Time(Second)))
	}
	if Max(Time(1), Time(2)) != 2 || Max(Time(5), Time(2)) != 5 {
		t.Fatal("Max wrong")
	}
	if got := (2 * Second).Seconds(); got != 2.0 {
		t.Fatalf("Seconds() = %v, want 2", got)
	}
}

func TestBytesDuration(t *testing.T) {
	// 1 GiB/s moving 1 GiB should take 1 second.
	const gib = 1 << 30
	d := BytesDuration(gib, gib)
	if d != Second {
		t.Fatalf("BytesDuration = %v, want 1s", d)
	}
	if BytesDuration(123, 0) != 0 {
		t.Fatal("zero bandwidth should cost nothing")
	}
	if BytesDuration(-5, gib) != 0 {
		t.Fatal("negative sizes should cost nothing")
	}
}

func TestResourceSerializes(t *testing.T) {
	r := NewResource("ost0")
	// Two requests arriving at the same instant must be served back to back.
	s1, e1 := r.Acquire(0, 10)
	s2, e2 := r.Acquire(0, 10)
	if s1 != 0 || e1 != 10 {
		t.Fatalf("first acquire [%v,%v]", s1, e1)
	}
	if s2 != 10 || e2 != 20 {
		t.Fatalf("second acquire [%v,%v], want [10,20]", s2, e2)
	}
	// A later arrival after the queue drained starts immediately.
	s3, e3 := r.Acquire(100, 5)
	if s3 != 100 || e3 != 105 {
		t.Fatalf("third acquire [%v,%v], want [100,105]", s3, e3)
	}
}

func TestResourceStatsAndReset(t *testing.T) {
	r := NewResource("nic")
	r.Acquire(0, 7)
	r.Acquire(0, 3)
	busy, n := r.Stats()
	if busy != 10 || n != 2 {
		t.Fatalf("Stats = (%v,%v), want (10,2)", busy, n)
	}
	r.Reset()
	busy, n = r.Stats()
	if busy != 0 || n != 0 {
		t.Fatalf("after Reset Stats = (%v,%v)", busy, n)
	}
	if s, _ := r.Acquire(0, 1); s != 0 {
		t.Fatalf("after Reset queue not empty: start=%v", s)
	}
}

func TestResourceConcurrentAcquireNoOverlap(t *testing.T) {
	r := NewResource("shared")
	const workers = 32
	const per = 8
	type iv struct{ s, e Time }
	out := make(chan iv, workers*per)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				s, e := r.Acquire(0, 3)
				out <- iv{s, e}
			}
		}()
	}
	wg.Wait()
	close(out)
	seen := map[Time]bool{}
	for v := range out {
		if v.e-v.s != 3 {
			t.Fatalf("window length %v, want 3", v.e-v.s)
		}
		if seen[v.s] {
			t.Fatalf("two windows start at %v: overlap", v.s)
		}
		seen[v.s] = true
	}
	busy, n := r.Stats()
	if n != workers*per || busy != Duration(3*workers*per) {
		t.Fatalf("Stats = (%v,%v)", busy, n)
	}
}
