package cluster

import (
	"errors"
	"sync"
	"testing"
	"testing/quick"
)

func TestLonestarMatchesPaper(t *testing.T) {
	m := Lonestar()
	if m.Nodes != 1888 {
		t.Fatalf("Nodes = %d, want 1888", m.Nodes)
	}
	if m.CoresPerNode != 12 {
		t.Fatalf("CoresPerNode = %d, want 12 (two 6-core processors)", m.CoresPerNode)
	}
	if m.MemPerNode != 24<<30 {
		t.Fatalf("MemPerNode = %d, want 24 GiB", m.MemPerNode)
	}
	if err := m.Validate(); err != nil {
		t.Fatalf("Lonestar invalid: %v", err)
	}
}

func TestValidate(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Machine)
		ok   bool
	}{
		{"default", func(m *Machine) {}, true},
		{"no nodes", func(m *Machine) { m.Nodes = 0 }, false},
		{"no cores", func(m *Machine) { m.CoresPerNode = 0 }, false},
		{"negative mem", func(m *Machine) { m.MemPerNode = -1 }, false},
		{"zero scale", func(m *Machine) { m.ByteScale = 0 }, false},
	}
	for _, tc := range cases {
		m := Lonestar()
		tc.mut(&m)
		if err := m.Validate(); (err == nil) != tc.ok {
			t.Errorf("%s: Validate() = %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
}

func TestPlacement(t *testing.T) {
	m := Lonestar()
	if m.NodeOf(0) != 0 || m.NodeOf(11) != 0 {
		t.Fatal("first 12 ranks should share node 0")
	}
	if m.NodeOf(12) != 1 {
		t.Fatalf("NodeOf(12) = %d, want 1", m.NodeOf(12))
	}
	if got := m.NodesFor(1024); got != 86 {
		t.Fatalf("NodesFor(1024) = %d, want 86", got)
	}
	if got := m.NodesFor(12); got != 1 {
		t.Fatalf("NodesFor(12) = %d, want 1", got)
	}
	if got := m.NodesFor(13); got != 2 {
		t.Fatalf("NodesFor(13) = %d, want 2", got)
	}
}

func TestPlacementProperty(t *testing.T) {
	m := Lonestar()
	f := func(rank uint16) bool {
		r := int(rank)
		n := m.NodeOf(r)
		// Every rank's node is within the node count implied by NodesFor.
		return n >= 0 && n < m.NodesFor(r+1)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestScale(t *testing.T) {
	m := Lonestar()
	m.ByteScale = 256
	if got := m.Scale(1000); got != 256000 {
		t.Fatalf("Scale(1000) = %d", got)
	}
}

func TestMemTrackerPerRankShare(t *testing.T) {
	m := Lonestar() // 24 GiB / 12 ranks = 2 GiB per rank
	tr := NewMemTracker(m, 64)
	if got := tr.perRank; got != 2<<30 {
		t.Fatalf("per-rank share = %d, want 2 GiB", got)
	}
	// Fewer ranks than cores: they share the node evenly.
	tr2 := NewMemTracker(m, 4)
	if got := tr2.perRank; got != 6<<30 {
		t.Fatalf("per-rank share with 4 ranks = %d, want 6 GiB", got)
	}
}

func TestMemTrackerOOM(t *testing.T) {
	m := Lonestar()
	tr := NewMemTracker(m, 64)
	if err := tr.Alloc(0, 1<<30); err != nil {
		t.Fatalf("1 GiB alloc failed: %v", err)
	}
	err := tr.Alloc(0, 3<<30) // 1+3 GiB > 2 GiB share
	if err == nil {
		t.Fatal("expected OOM")
	}
	if !errors.Is(err, ErrOutOfMemory) {
		t.Fatalf("error %v does not wrap ErrOutOfMemory", err)
	}
	// The failed allocation must not be charged.
	if got := tr.Used(0); got != 1<<30 {
		t.Fatalf("Used = %d after failed alloc, want 1 GiB", got)
	}
	// Another rank is unaffected.
	if err := tr.Alloc(1, 2<<30); err != nil {
		t.Fatalf("rank 1 alloc failed: %v", err)
	}
}

func TestMemTrackerFreeAndPeak(t *testing.T) {
	m := Lonestar()
	tr := NewMemTracker(m, 64)
	tr.Alloc(3, 100)
	tr.Alloc(3, 200)
	tr.Free(3, 150)
	if got := tr.Used(3); got != 150 {
		t.Fatalf("Used = %d, want 150", got)
	}
	tr.Free(3, 1000) // over-free clamps
	if got := tr.Used(3); got != 0 {
		t.Fatalf("Used = %d after over-free, want 0", got)
	}
	if got := tr.MaxPeak(); got != 300 {
		t.Fatalf("MaxPeak = %d, want 300", got)
	}
}

func TestMemTrackerDisabled(t *testing.T) {
	tr := Unlimited()
	if err := tr.Alloc(0, 1<<50); err != nil {
		t.Fatalf("unlimited tracker refused: %v", err)
	}
	m := Lonestar()
	m.MemPerNode = 0
	tr2 := NewMemTracker(m, 8)
	if err := tr2.Alloc(0, 1<<50); err != nil {
		t.Fatalf("zero-capacity machine should disable enforcement: %v", err)
	}
}

func TestMemTrackerNegativeAlloc(t *testing.T) {
	tr := Unlimited()
	if err := tr.Alloc(0, -1); err == nil {
		t.Fatal("negative alloc should error")
	}
}

func TestMemTrackerConcurrent(t *testing.T) {
	m := Lonestar()
	tr := NewMemTracker(m, 64)
	var wg sync.WaitGroup
	for r := 0; r < 16; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				if err := tr.Alloc(r, 1<<20); err != nil {
					t.Errorf("rank %d: %v", r, err)
					return
				}
			}
			for i := 0; i < 100; i++ {
				tr.Free(r, 1<<20)
			}
		}(r)
	}
	wg.Wait()
	for r := 0; r < 16; r++ {
		if got := tr.Used(r); got != 0 {
			t.Fatalf("rank %d Used = %d, want 0", r, got)
		}
	}
}
