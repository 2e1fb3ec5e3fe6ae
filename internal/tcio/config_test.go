package tcio

import (
	"strings"
	"testing"

	"github.com/tcio/tcio/internal/faults"
)

// TestConfigNormalize walks every Config field through its zero-default
// and its invalid-value rejection, row by row.
func TestConfigNormalize(t *testing.T) {
	const stripe = int64(1 << 20)
	cases := []struct {
		name string
		in   Config
		want func(Config) bool // post-normalization invariant
		err  string            // "" = must succeed
	}{
		{
			name: "zero value defaults every field",
			in:   Config{},
			want: func(c Config) bool {
				return c.SegmentSize == stripe && c.NumSegments == 64
			},
		},
		{
			name: "explicit values survive",
			in:   Config{SegmentSize: 128, NumSegments: 3},
			want: func(c Config) bool {
				return c.SegmentSize == 128 && c.NumSegments == 3
			},
		},
		{name: "negative segment size", in: Config{SegmentSize: -1}, err: "segment size"},
		{name: "negative segment count", in: Config{NumSegments: -2}, err: "segment count"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := tc.in.Normalize(stripe)
			if tc.err != "" {
				if err == nil || !strings.Contains(err.Error(), tc.err) {
					t.Fatalf("Normalize(%+v) err = %v, want mention of %q", tc.in, err, tc.err)
				}
				return
			}
			if err != nil {
				t.Fatalf("Normalize(%+v): %v", tc.in, err)
			}
			if !tc.want(got) {
				t.Fatalf("Normalize(%+v) = %+v violates invariant", tc.in, got)
			}
		})
	}
}

// TestConfigNormalizeIdempotent pins that normalizing twice is a no-op —
// the property the delegation client relies on when it re-normalizes a
// config the caller may already have normalized. The zero config's
// geometry is rewritten by the first pass, so the second has defaults to
// keep.
func TestConfigNormalizeIdempotent(t *testing.T) {
	once, err := Config{}.Normalize(512)
	if err != nil {
		t.Fatal(err)
	}
	if once.SegmentSize != 512 || once.NumSegments != 64 {
		t.Fatalf("first Normalize kept the zero geometry: %+v", once)
	}
	twice, err := once.Normalize(512)
	if err != nil {
		t.Fatal(err)
	}
	if once != twice {
		t.Fatalf("second Normalize changed the config:\nonce  %+v\ntwice %+v", once, twice)
	}
}

// TestConfigRetryPolicy covers the Retry knob's nil-default resolution.
func TestConfigRetryPolicy(t *testing.T) {
	var cfg Config
	if got, want := cfg.retryPolicy(), faults.DefaultRetryPolicy(); got != want {
		t.Fatalf("nil Retry resolved to %+v, want default %+v", got, want)
	}
	zero := &faults.RetryPolicy{}
	cfg.Retry = zero
	if got := cfg.retryPolicy(); got != *zero {
		t.Fatalf("explicit zero-budget Retry resolved to %+v", got)
	}
}
