package conformance

import (
	"reflect"
	"testing"
)

// TestGeneratedProgramsConform is the tier-1 sweep: three seeds per knob
// class, every engine diffed against the ground truth.
func TestGeneratedProgramsConform(t *testing.T) {
	for seed := int64(1); seed <= 24; seed++ {
		out := Check(Generate(seed))
		t.Log(out.Summary)
		for _, d := range out.Divergences {
			t.Errorf("seed %d: %s", seed, d)
		}
	}
}

// TestGenerateDeterministic pins that one seed always yields the
// identical program (the property the corpus and the summary comparisons
// rest on).
func TestGenerateDeterministic(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		a, b := Generate(seed), Generate(seed)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("seed %d generated two different programs", seed)
		}
		if a.Digest() != b.Digest() {
			t.Fatalf("seed %d digests differ", seed)
		}
	}
}

// TestProgramJSONRoundTrip serializes a generated program and requires
// the round trip to be lossless.
func TestProgramJSONRoundTrip(t *testing.T) {
	for _, seed := range []int64{2, 3, 5} { // one per non-baseline class
		p := Generate(seed)
		blob, err := p.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		q, err := Unmarshal(blob)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(p, q) {
			t.Fatalf("seed %d: round trip changed the program", seed)
		}
		if p.Digest() != q.Digest() {
			t.Fatalf("seed %d: digest changed across round trip", seed)
		}
	}
}

// TestValidateRejectsOverlap requires the validator to reject cross-rank
// write overlap — the one program shape whose file contents are
// engine-schedule-dependent and therefore unverifiable.
func TestValidateRejectsOverlap(t *testing.T) {
	p := &Program{
		Seed: 1, Procs: 2, SegmentSize: 16, NumSegments: 2,
		FileBytes: 64, StripeSize: 16, StripeCount: 1,
		WriteRounds: []Round{{Ops: []Op{
			{Rank: 0, Off: 0, Len: 10, ID: 1},
			{Rank: 1, Off: 8, Len: 10, ID: 2},
		}}},
	}
	if err := p.Validate(); err == nil {
		t.Fatal("cross-rank overlapping writes validated")
	}
	// Same bytes on one rank are fine (rewrites are program-ordered).
	p.WriteRounds[0].Ops[1].Rank = 0
	if err := p.Validate(); err != nil {
		t.Fatalf("same-rank rewrite rejected: %v", err)
	}
}

// TestValidateRejectsIllegalKnobs: the oracle refuses exactly what the
// libraries refuse, in their words — Validate normalizes the configurations
// the engines open with instead of restating the legal ranges.
func TestValidateRejectsIllegalKnobs(t *testing.T) {
	for _, tc := range []struct {
		name string
		set  func(*Knobs)
		want string
	}{
		{"crash kills with servers", func(k *Knobs) { k.Journal, k.CrashKills, k.ServerRanks = true, 2, 1 },
			"delegate: journal with 1 server ranks"},
		{"negative servers", func(k *Knobs) { k.ServerRanks = -1 }, "delegate: -1 server ranks of 2"},
		{"servers eat all ranks", func(k *Knobs) { k.ServerRanks = 2 }, "delegate: 2 server ranks of 2"},
		{"server cache blocks", func(k *Knobs) { k.ServerCacheBlocks = -4 }, "delegate: server cache blocks -4"},
		{"read quantum", func(k *Knobs) { k.ReadQuantum = -8 }, "delegate: read quantum -8"},
		{"collective read without servers", func(k *Knobs) { k.CollectiveRead = true }, "delegate: collective read without server ranks"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := &Program{
				Seed: 1, Procs: 2, SegmentSize: 16, NumSegments: 2,
				FileBytes: 64, StripeSize: 16, StripeCount: 1,
			}
			if err := p.Validate(); err != nil {
				t.Fatalf("base program rejected: %v", err)
			}
			tc.set(&p.Knobs)
			if err := p.Validate(); err == nil || err.Error() != tc.want {
				t.Fatalf("Validate() = %v, want %q", err, tc.want)
			}
		})
	}
}

// TestTruthSemantics pins the ground-truth model: later writes win,
// zero-length ops are inert, unwritten bytes read zero.
func TestTruthSemantics(t *testing.T) {
	p := &Program{
		Seed: 7, Procs: 1, SegmentSize: 16, NumSegments: 2,
		FileBytes: 32, StripeSize: 16, StripeCount: 1,
		WriteRounds: []Round{
			{Ops: []Op{{Rank: 0, Off: 4, Len: 8, ID: 1}}},
			{Ops: []Op{
				{Rank: 0, Off: 6, Len: 4, ID: 2},
				{Rank: 0, Off: 20, Len: 0, ID: 3},
			}},
		},
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	truth := p.Truth()
	if len(truth) != 32 {
		t.Fatalf("truth is %d bytes, want 32", len(truth))
	}
	for i := int64(0); i < 32; i++ {
		var want byte
		switch {
		case i >= 6 && i < 10:
			want = payloadByte(p.Seed, 2, i-6)
		case i >= 4 && i < 12:
			want = payloadByte(p.Seed, 1, i-4)
		}
		if truth[i] != want {
			t.Fatalf("truth[%d] = %#x, want %#x", i, truth[i], want)
		}
	}
	if ids := p.CoverIDs(); ids[7] != 2 || ids[5] != 1 || ids[20] != -1 {
		t.Fatalf("CoverIDs wrong: %v", ids[:24])
	}
}

// TestShrinkMechanics drives the shrinker with a synthetic predicate —
// "the program still contains write op ID k" — and requires convergence
// to (almost) just that op, with every candidate validated.
func TestShrinkMechanics(t *testing.T) {
	p := Generate(2) // class 2: several rounds, many ops
	var target int64
	for _, r := range p.WriteRounds {
		for _, op := range r.Ops {
			if op.Len > 1 {
				target = op.ID
			}
		}
	}
	if target == 0 {
		t.Fatal("no target op found")
	}
	contains := func(c *Program) bool {
		for _, r := range c.WriteRounds {
			for _, op := range r.Ops {
				if op.ID == target {
					return true
				}
			}
		}
		return false
	}
	small, stats := Shrink(p, contains, 500)
	if !contains(small) {
		t.Fatal("shrunk program no longer fails the predicate")
	}
	if err := small.Validate(); err != nil {
		t.Fatalf("shrunk program invalid: %v", err)
	}
	wops, rops := small.Ops()
	if wops > 1 || rops > 0 {
		t.Errorf("shrunk to %d write / %d read ops, want 1 / 0", wops, rops)
	}
	if small.Procs != 1 {
		t.Errorf("shrunk program keeps %d ranks, want 1", small.Procs)
	}
	if stats.Improvements == 0 {
		t.Error("shrinker accepted no reductions")
	}
	t.Logf("shrunk seed 2 to %d/%d ops, %d ranks in %d evals", wops, rops, small.Procs, stats.Evals)
}

// TestCorpusReplay replays every shrunk repro in testdata/corpus — each
// once diverged under a mutant of the smoke gate, and must stay green on
// the clean build.
func TestCorpusReplay(t *testing.T) {
	cases, err := LoadDir("testdata/corpus")
	if err != nil {
		t.Fatal(err)
	}
	if len(cases) < 3 {
		t.Fatalf("corpus holds %d cases, want at least 3", len(cases))
	}
	for name, p := range cases {
		name, p := name, p
		t.Run(name, func(t *testing.T) {
			if err := p.Validate(); err != nil {
				t.Fatalf("corpus case invalid: %v", err)
			}
			out := Check(p)
			t.Log(out.Summary)
			for _, d := range out.Divergences {
				t.Errorf("%s", d)
			}
		})
	}
}

// FuzzConformance lets `go test -fuzz` explore the seed space; any
// divergence found this way crashes with the seed, which Generate turns
// back into the full failing program.
func FuzzConformance(f *testing.F) {
	for seed := int64(1); seed <= 4; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		out := Check(Generate(seed))
		for _, d := range out.Divergences {
			t.Errorf("seed %d: %s", seed, d)
		}
	})
}
