package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"ecofl/internal/scenario"
)

// cmdBench is the spec runner: it executes one declarative scenario (every
// cell of it, if the spec carries a sweep block) and writes its one
// scenario-report/v1. A report that carries warnings still exits 0; they go
// to stderr, as does the tail of a journaled run's timeline. Measuring one
// commit against another is not done here — `go run ./benchmark compare`
// does that.
func cmdBench(args []string) error {
	fs := flag.NewFlagSet("bench", flag.ExitOnError)
	path := fs.String("scenario", "", "scenario spec JSON")
	out := fs.String("out", "", "write the report JSON to this path (default stdout)")
	gitSHA := fs.String("git-sha", "", "git revision recorded in the report (never read ambiently)")
	now := fs.Int64("now", 0, "capture unix timestamp recorded in the report (never read ambiently)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("bench: unexpected argument %q", fs.Arg(0))
	}
	if *path == "" {
		return fmt.Errorf("bench: --scenario is required")
	}

	spec, err := scenario.Load(*path)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "running scenario %s (%s, %s)...\n", spec.Name, spec.Topology, *path)
	t0 := time.Now()
	rep, err := scenario.Run(spec, scenario.RunOptions{GitSHA: *gitSHA, Now: *now})
	if err != nil {
		return err
	}
	if rep.Table != nil {
		fmt.Fprintf(os.Stderr, "  done in %.1fs: a table of %d rows\n", time.Since(t0).Seconds(), len(rep.Table.Rows))
	} else {
		fmt.Fprintf(os.Stderr, "  done in %.1fs: %d metrics, %d curve points\n",
			time.Since(t0).Seconds(), len(rep.Metrics), len(rep.Curve))
	}
	for _, w := range rep.Warnings {
		fmt.Fprintf(os.Stderr, "  warning: %s\n", w)
	}

	if *out == "" {
		return rep.WriteJSON(os.Stdout)
	}
	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	werr := rep.WriteJSON(f)
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr == nil {
		fmt.Fprintf(os.Stderr, "wrote report to %s\n", *out)
	}
	return werr
}
