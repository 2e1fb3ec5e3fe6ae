package bench

import "fmt"

// defaultAblation returns a workstation-scale ablation configuration. The
// process count is kept moderate: ablations isolate mechanisms, not scale.
func defaultAblation() *synthGeometry { return &synthGeometry{Procs: 64, LenSim: 1 << 20} }

// ablationVariant is one row of the ablation table.
type ablationVariant struct {
	name   string
	detail string
	mutate func(*SyntheticConfig)
}

func ablationVariants() []ablationVariant {
	return []ablationVariant{
		{"baseline", "paper configuration", nil},
		{"no level-1 buffer", "one one-sided op per piece",
			func(c *SyntheticConfig) { c.Level1Disabled = true }},
		{"segment = stripe/4", "level-2 segments below the lock granularity",
			func(c *SyntheticConfig) { c.SegmentSizeMultiplier = 0.25 }},
		{"segment = 4 stripes", "level-2 segments above the lock granularity",
			func(c *SyntheticConfig) { c.SegmentSizeMultiplier = 4 }},
		{"demand populate", "the first fetch of a segment posts its load",
			func(c *SyntheticConfig) { c.DemandPopulate = true }},
	}
}

// ablationSweep is the design-choice ablation sweep (DESIGN.md §5): each
// row runs the synthetic workload with one TCIO mechanism altered.
func ablationSweep(g *synthGeometry) *Sweep {
	variant := func(r *Row) ablationVariant { return r.Point.(ablationVariant) }
	return &Sweep{
		Name:   "ablations",
		Help:   "run the TCIO design-choice ablations",
		Params: g,
		Points: func() []any { return points(ablationVariants()) },
		Env:    g.env,
		Run: func(env *Env, pt any) ([]Row, error) {
			cfg := g.config(env, MethodTCIO, "ablation")
			if v := pt.(ablationVariant); v.mutate != nil {
				v.mutate(&cfg)
			}
			return synthRow(env, pt, cfg)
		},
		Tables: tables(Table{
			Title: fmt.Sprintf("TCIO design ablations (%d processes)", g.Procs),
			Columns: []Column{
				det("variant", "variant", func(r *Row) any { return variant(r).name }),
				colWrite, colRead,
				// The write phase's one-sided messages: the count the
				// level-1 buffer coalesces.
				det("1s-msgs", "one_sided_msgs", func(r *Row) any { return r.Net.OneSidedMsgs }),
				det("notes", "", func(r *Row) any { return variant(r).detail }),
			},
		}),
	}
}
