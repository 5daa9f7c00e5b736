package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"
	"unicode"

	"ecofl/internal/plot"
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
	svgDir := fs.String("svg", "", "draw a sweep's charts into this directory: accuracy curves per value of the first axis, or each metric against a lone numeric axis")
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
	if *svgDir != "" && spec.Sweep == nil {
		return fmt.Errorf("bench: --svg draws a sweep's table, and %s has no sweep", *path)
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
	if *svgDir != "" {
		charts := reportCharts(rep.Scenario, rep.Table)
		for name, chart := range charts {
			if err := plot.WriteFile(*svgDir, name, chart); err != nil {
				return err
			}
		}
		fmt.Fprintf(os.Stderr, "wrote %d SVG charts to %s\n", len(charts), *svgDir)
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

// reportCharts draws a sweep's table, keyed by file name. A sweep over one
// numeric axis (Fig. 9's λ) gets a chart per reported metric against that
// axis; any other sweep a chart of accuracy curves per value of its first
// axis, one line per row, named by the row's other values (a swept
// aggregation block by its strategy).
func reportCharts(name string, t *scenario.Table) map[string]*plot.Chart {
	charts := map[string]*plot.Chart{}
	if xs, ok := numericAxis(t); ok {
		for m, metric := range t.Metrics {
			line := plot.Line{Name: metric, X: xs}
			for _, row := range t.Rows {
				line.Y = append(line.Y, row.Metrics[m])
			}
			charts[name+"_"+metric] = &plot.Chart{Title: name + ": " + metric + " vs " + t.Axes[0],
				XLabel: t.Axes[0], YLabel: metric, Lines: []plot.Line{line}}
		}
		return charts
	}
	for i, row := range t.Rows {
		first := string(row.Values[0])
		file := name + "_" + strings.Trim(strings.Map(fileRune, first), "-")
		if charts[file] == nil {
			charts[file] = &plot.Chart{Title: name + ": " + t.Axes[0] + "=" + first, XLabel: "t", YLabel: "accuracy"}
		}
		var label []string
		for _, axis := range t.Axes[1:] {
			v := t.Value(i, axis+".strategy")
			if v == "" {
				v = t.Value(i, axis)
			}
			label = append(label, strings.Trim(v, `"`))
		}
		line := plot.Line{Name: strings.Join(label, " ")}
		for _, p := range row.Curve {
			line.X = append(line.X, p.Time)
			line.Y = append(line.Y, p.Accuracy)
		}
		charts[file].Lines = append(charts[file].Lines, line)
	}
	return charts
}

// numericAxis returns the values of a sweep's one axis when every one is a
// number.
func numericAxis(t *scenario.Table) ([]float64, bool) {
	if len(t.Axes) != 1 {
		return nil, false
	}
	xs := make([]float64, len(t.Rows))
	for i, row := range t.Rows {
		if json.Unmarshal(row.Values[0], &xs[i]) != nil {
			return nil, false
		}
	}
	return xs, true
}

// fileRune keeps letters, digits, dots and dashes of an axis value in a file
// name and turns the rest into dashes.
func fileRune(r rune) rune {
	if unicode.IsLetter(r) || unicode.IsDigit(r) || r == '.' || r == '-' {
		return unicode.ToLower(r)
	}
	return '-'
}
