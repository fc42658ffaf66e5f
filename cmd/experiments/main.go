// Command experiments regenerates every table and figure of the thesis
// evaluation (Chapter 4) on the simulated substrates and prints a
// paper-vs-measured report. With -md it also writes the report as
// markdown (used to produce EXPERIMENTS.md).
//
// Experiments decompose into independent seeded cells, and the cells of
// every selected experiment run first-in, first-out in suite order on
// -j workers; reports are printed in suite order, so the output is
// byte-identical at any -j.
//
//	experiments                  # run everything, one worker per CPU
//	experiments -j 1             # serial
//	experiments -run E05,E15     # selected experiments
//	experiments -run 'E1.*'      # regex over ids
//	experiments -md EXPERIMENTS.md
//	experiments -cells           # per-cell wall-clock timing report
//	experiments -cpuprofile cpu.pprof -run E05
//
// The command exits 1 if any report failed (a kernel error, a failed
// rank or a failed probe) and names each failed report on stderr.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"runtime"
	"runtime/pprof"
	"runtime/trace"
	"sort"
	"strings"
	"time"

	"dmetabench/internal/experiments"
)

func main() { os.Exit(run()) }

// run runs the selected experiments and returns the exit code: 1 for a
// bad flag, an unwritable output file or any failed report, else 0.
// main exits only after run returns, so the profile writers flush.
func run() int {
	var (
		runPat     = flag.String("run", "", "experiment filter: comma-separated ids or anchored regexes (default: all)")
		mdOut      = flag.String("md", "", "write a markdown report to this file")
		list       = flag.Bool("list", false, "list experiment ids and cell counts, then exit")
		workers    = flag.Int("j", runtime.NumCPU(), "number of workers running cells")
		cells      = flag.Bool("cells", false, "print per-cell wall-clock timings after the run")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile = flag.String("memprofile", "", "write a heap profile to this file at exit")
		traceOut   = flag.String("trace", "", "write a runtime execution trace to this file")
		period     = flag.Duration("period", 0, "override the virtual-time horizon of the long-horizon experiments (E31-E33, E35), e.g. -period 10m for a scaled-down smoke run (0 = each experiment's default)")
	)
	flag.Parse()
	experiments.Period = *period

	suite := append(experiments.All(), experiments.Ablations()...)

	if *list {
		listExperiments(suite)
		return 0
	}

	match, err := compileFilter(*runPat)
	if err != nil {
		fmt.Fprintf(os.Stderr, "experiments: bad -run pattern %q: %v\n", *runPat, err)
		return 1
	}
	var selected []experiments.Experiment
	for _, e := range suite {
		if match(e.ID) {
			selected = append(selected, e)
		}
	}
	if len(selected) == 0 {
		fmt.Fprintf(os.Stderr, "experiments: no experiment matches -run %q\n", *runPat)
		return 1
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			return 1
		}
		defer f.Close()
		if err := trace.Start(f); err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			return 1
		}
		defer trace.Stop()
	}

	j := max(*workers, 1)
	start := time.Now()
	reps, timings := experiments.Run(selected, j)
	suiteWall := time.Since(start)
	// An experiment's cost is the wall time of its cells, wherever and
	// whenever they ran.
	cost := map[string]time.Duration{}
	for _, t := range timings {
		cost[t.ID] += t.Wall
	}

	var md strings.Builder
	md.WriteString("# EXPERIMENTS — paper vs. measured\n\n")
	md.WriteString("Generated by `go run ./cmd/experiments -md EXPERIMENTS.md`.\n")
	md.WriteString("Every experiment rebuilds its simulated environment from scratch\n")
	md.WriteString("(deterministic seeds), runs DMetabench on it and compares the\n")
	md.WriteString("resulting *shape* against the corresponding thesis table/figure.\n")
	md.WriteString("Absolute numbers differ from the 2008 LRZ hardware by design.\n\n")

	for _, rep := range reps {
		fmt.Printf("%s [%.1fs real]\n\n", rep.String(), cost[rep.ID].Seconds())

		fmt.Fprintf(&md, "## %s — %s\n\n*Paper reference: %s.*\n\n", rep.ID, rep.Title, rep.PaperRef)
		if rep.Volatile {
			// Real-time measurement of the host machine: the values vary
			// per run, so the committed report stays byte-stable by
			// pointing at the live command instead (the CI docs job
			// diffs regenerated output against EXPERIMENTS.md).
			fmt.Fprintf(&md, "*Real-time measurement — values vary by machine and are omitted "+
				"from the committed report; run `go run ./cmd/experiments -run %s` locally.*\n\n", rep.ID)
			continue
		}
		md.WriteString("| Metric | Value | Unit | Note |\n|---|---:|---|---|\n")
		for _, row := range rep.Rows {
			val := fmt.Sprintf("%.1f", row.Value)
			if row.Value < 10 && row.Value > -10 && row.Value != float64(int64(row.Value)) {
				val = fmt.Sprintf("%.3f", row.Value)
			}
			fmt.Fprintf(&md, "| %s | %s | %s | %s |\n", row.Name, val, row.Unit, row.Note)
		}
		md.WriteString("\n")
		for _, f := range rep.Findings {
			fmt.Fprintf(&md, "**Shape check:** %s\n\n", f)
		}
		for _, c := range rep.Charts {
			fmt.Fprintf(&md, "```\n%s```\n\n", c)
		}
	}
	fmt.Printf("total: %.1fs (%d workers)\n", suiteWall.Seconds(), j)

	if *cells {
		printCellTimings(os.Stdout, timings, suiteWall, j)
	}

	if *mdOut != "" {
		if err := os.WriteFile(*mdOut, []byte(md.String()), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			return 1
		}
		fmt.Println("wrote", *mdOut)
	}

	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			return 1
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			return 1
		}
	}

	code := 0
	for _, rep := range reps {
		if rep.Err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %s failed: %v\n", rep.ID, rep.Err)
			code = 1
		}
	}
	return code
}

// compileFilter turns the -run argument into an id predicate. Each
// comma-separated part is an anchored regular expression, so both the
// historical id-list form ("E05,E15") and patterns ("E1.*", "E0[1-9]")
// work; empty means everything.
func compileFilter(pat string) (func(string) bool, error) {
	if pat == "" {
		return func(string) bool { return true }, nil
	}
	var parts []string
	for _, p := range strings.Split(pat, ",") {
		if p = strings.TrimSpace(p); p != "" {
			parts = append(parts, p)
		}
	}
	re, err := regexp.Compile("^(?:" + strings.Join(parts, "|") + ")$")
	if err != nil {
		return nil, err
	}
	return re.MatchString, nil
}

// listExperiments prints one line per experiment: its id and the
// number of cells its plan declares.
func listExperiments(suite []experiments.Experiment) {
	fmt.Printf("%-5s %5s\n", "id", "cells")
	for _, e := range suite {
		fmt.Printf("%-5s %5d\n", e.ID, e.NumCells())
	}
}

// printCellTimings renders the per-cell timings grouped by experiment,
// slowest cell first — the -cells report used to spot the critical path
// of a parallel run. Its last line compares the suite's wall time with
// the j-worker bound max(sum/j, longest cell), which no schedule of these
// cells can beat, and ends with the process's peak RSS where the
// platform reports one.
func printCellTimings(w io.Writer, timings []experiments.Timing, wall time.Duration, j int) {
	byExp := map[string][]experiments.Timing{}
	var exps []string
	var sum, longest time.Duration
	for _, t := range timings {
		if _, ok := byExp[t.ID]; !ok {
			exps = append(exps, t.ID)
		}
		byExp[t.ID] = append(byExp[t.ID], t)
		sum += t.Wall
		longest = max(longest, t.Wall)
	}
	sort.Strings(exps)
	fmt.Fprintf(w, "\nper-cell wall-clock (%d cells):\n", len(timings))
	for _, exp := range exps {
		ts := byExp[exp]
		var expSum time.Duration
		for _, t := range ts {
			expSum += t.Wall
		}
		sort.SliceStable(ts, func(i, j int) bool { return ts[i].Wall > ts[j].Wall })
		fmt.Fprintf(w, "%s: %d cells, %.2fs total\n", exp, len(ts), expSum.Seconds())
		for _, t := range ts {
			fmt.Fprintf(w, "  %-40s %8.3fs\n", t.ID+"/"+t.Cell, t.Wall.Seconds())
		}
	}
	bound := max(sum/time.Duration(j), longest)
	fmt.Fprintf(w, "cell sum %.2fs, longest cell %.2fs, wall %.2fs; %d-worker bound %.2fs, reached %.1f%%",
		sum.Seconds(), longest.Seconds(), wall.Seconds(), j, bound.Seconds(), 100*bound.Seconds()/wall.Seconds())
	if mb, ok := peakRSSMB(); ok {
		fmt.Fprintf(w, ", peak RSS %.0f MB", mb)
	}
	fmt.Fprintln(w)
}
