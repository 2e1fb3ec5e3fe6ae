package bench

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

// This file is the command line both drivers share: the flags are
// generated from a list of sweeps, and every selected sweep goes through
// Run.

// Tciobench registers tciobench's sweeps and options on fs. Sweeps run in
// this order.
func Tciobench(fs *flag.FlagSet) *CLI {
	fig5 := defaultFig5()
	c := newCLI(fs, []*Sweep{
		tablesSweep(fig5),
		fig5Sweep(fig5),
		fig67Sweep(defaultFig67()),
		ablationSweep(defaultAblation()),
		chaosSweep(defaultChaos()),
		delegateSweep(defaultDelegate()),
		delegateReadSweep(defaultDelegateRead()),
	})
	fs.IntVar(&c.LenReal, "len-real", 4<<10, "materialized elements per array per process; must divide a sweep's simulated LENarray")
	fs.Int64Var(&c.Seed, "seed", 1, "seed of fault injection and -conform")
	return c
}

// Artbench registers artbench's sweeps and options on fs.
func Artbench(fs *flag.FlagSet) *CLI {
	return newCLI(fs, []*Sweep{table4Sweep(), ART(DefaultART())})
}

// CLI is a parsed command line over a list of sweeps.
type CLI struct {
	Options
	sweeps          []*Sweep
	on              map[string]*bool // by sweep or table flag
	all, csv, quiet bool
}

func newCLI(fs *flag.FlagSet, sweeps []*Sweep) *CLI {
	c := &CLI{sweeps: sweeps, on: map[string]*bool{}}
	for _, s := range sweeps {
		for name, help := range s.flags() {
			if s.After != "" {
				help += " [also runs after a clean -" + s.After + "]"
			}
			c.on[name] = fs.Bool(name, false, help)
		}
		for _, f := range s.Flags {
			switch p := f.Var.(type) {
			case *int:
				fs.IntVar(p, f.Name, *p, f.Help)
			case *[]int: // process counts and the like
				fs.Var(list{p}, f.Name, f.Help)
			default:
				panic(fmt.Sprintf("bench: flag -%s bound to a %T", f.Name, f.Var))
			}
		}
	}
	fs.BoolVar(&c.all, "all", false, "run every sweep")
	fs.BoolVar(&c.csv, "csv", false, "emit CSV instead of aligned tables")
	fs.BoolVar(&c.quiet, "quiet", false, "suppress progress lines")
	return c
}

// named reports whether the command line names the sweep.
func (c *CLI) named(s *Sweep) bool {
	for name := range s.flags() {
		if *c.on[name] {
			return true
		}
	}
	return false
}

// chaosName names the sweep whose flag does double duty: beside sweeps that
// have a deterministic projection (and without -all) -chaos arms those and
// prints their projections instead of running the chaos sweep itself.
const chaosName = "chaos"

// Run executes every selected sweep in order, printing each one's tables
// to stdout as it completes and progress lines to stderr. No report and no
// error means the command line named no sweep.
func (c *CLI) Run(stdout, stderr io.Writer) ([]*Report, error) {
	armed := false
	if chaos := c.on[chaosName]; chaos != nil && *chaos && !c.all {
		for _, s := range c.sweeps {
			armed = armed || c.named(s) && s.Projection != nil
		}
	}
	opts := c.Options
	if !c.quiet {
		opts.Progress = func(line string) { fmt.Fprintln(stderr, "  ", line) }
	}
	var reports []*Report
	clean := map[string]bool{} // sweeps that ran unarmed
	for _, s := range c.sweeps {
		selected := c.named(s) || c.all || clean[s.After]
		if !selected || armed && s.Name == chaosName {
			continue
		}
		opts.Chaos = armed && s.Projection != nil
		clean[s.Name] = !opts.Chaos
		rep, err := Run(s, opts)
		if err != nil {
			return reports, err
		}
		reports = append(reports, rep)
		shown := func(flag string) bool {
			return flag == "" || c.all || *c.on[flag] || clean[s.After]
		}
		for _, t := range rep.Tables(shown) {
			if err := t.Write(stdout, c.csv); err != nil {
				return reports, err
			}
		}
		if s.Note != nil {
			if _, err := io.WriteString(stdout, s.Note()); err != nil {
				return reports, err
			}
		}
	}
	return reports, nil
}

// WriteJSON writes the run's document: its options and one entry per sweep
// that ran.
func WriteJSON(path string, o Options, reports []*Report) error {
	doc := struct {
		LenReal int     `json:"len_real"`
		Seed    int64   `json:"seed"`
		Sweeps  []Entry `json:"sweeps"`
	}{LenReal: o.LenReal, Seed: o.Seed}
	for _, rep := range reports {
		doc.Sweeps = append(doc.Sweeps, rep.Entry())
	}
	blob, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(blob, '\n'), 0o644)
}

// list is the flag.Value of a comma-separated list whose elements must be
// at least 1.
type list struct{ p *[]int }

func (l list) Set(s string) error {
	var out []int
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || v < 1 {
			return fmt.Errorf("bad value %q", part)
		}
		out = append(out, v)
	}
	*l.p = out
	return nil
}

func (l list) String() string {
	if l.p == nil {
		return ""
	}
	return strings.Trim(strings.ReplaceAll(fmt.Sprint(*l.p), " ", ","), "[]")
}
