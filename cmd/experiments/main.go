// Command experiments regenerates every table and figure of the thesis
// evaluation (Chapter 4) on the simulated substrates and prints a
// paper-vs-measured report. With -md it also writes the report as
// markdown (used to produce EXPERIMENTS.md).
//
// Experiments decompose into independent cells (internal/par) and the
// whole suite fans out across -j workers; reports are assembled and
// printed in suite order, so the output is byte-identical at any -j.
//
//	experiments                  # run everything, one worker per CPU
//	experiments -j 1             # serial
//	experiments -run E05,E15     # selected experiments
//	experiments -run 'E1.*'      # regex over ids
//	experiments -md EXPERIMENTS.md
//	experiments -cells           # per-cell wall-clock timing report
//	experiments -cpuprofile cpu.pprof -run E05
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
	"runtime"
	"runtime/pprof"
	"runtime/trace"
	"sort"
	"strings"
	"time"

	"dmetabench/internal/experiments"
	"dmetabench/internal/par"
)

func main() {
	var (
		runPat     = flag.String("run", "", "experiment filter: comma-separated ids or anchored regexes (default: all)")
		mdOut      = flag.String("md", "", "write a markdown report to this file")
		list       = flag.Bool("list", false, "list experiment ids, cell counts and last benched serial cost, then exit")
		workers    = flag.Int("j", runtime.NumCPU(), "worker pool size for parallel cell execution")
		cells      = flag.Bool("cells", false, "print per-cell wall-clock timings after the run")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile = flag.String("memprofile", "", "write a heap profile to this file at exit")
		traceOut   = flag.String("trace", "", "write a runtime execution trace to this file")
		domains    = flag.Int("domains", 0, "partition every sharded-MDS simulation into this many event-kernel domains (0 = single-heap kernel, the committed-corpus default)")
		period     = flag.Duration("period", 0, "override the virtual-time horizon of the long-horizon experiments (E31-E33, E35), e.g. -period 10m for a scaled-down smoke run (0 = each experiment's default)")
	)
	flag.Parse()
	experiments.Domains = *domains
	experiments.Period = *period

	suite := append(experiments.All(), experiments.Ablations()...)

	if *list {
		listExperiments(suite)
		return
	}

	match, err := compileFilter(*runPat)
	if err != nil {
		fmt.Fprintf(os.Stderr, "experiments: bad -run pattern %q: %v\n", *runPat, err)
		os.Exit(1)
	}
	var selected []experiments.Experiment
	for _, e := range suite {
		if match(e.ID) {
			selected = append(selected, e)
		}
	}
	if len(selected) == 0 {
		fmt.Fprintf(os.Stderr, "experiments: no experiment matches -run %q\n", *runPat)
		os.Exit(1)
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := trace.Start(f); err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		defer trace.Stop()
	}

	par.SetWorkers(*workers)

	// Run every selected experiment as a cell of the suite-level fan-out:
	// experiments share nothing (each builds its own kernels), so they
	// interleave freely with each other's inner cells on the same pool.
	// Reports land in their slot and render in suite order below.
	type outcome struct {
		rep     *experiments.Report
		elapsed time.Duration
	}
	outs := make([]outcome, len(selected))
	total := time.Now()
	par.Do(len(selected), func(i int) {
		start := time.Now()
		rep := selected[i].Run()
		outs[i] = outcome{rep: rep, elapsed: time.Since(start)}
	})
	suiteWall := time.Since(total)

	var md strings.Builder
	md.WriteString("# EXPERIMENTS — paper vs. measured\n\n")
	md.WriteString("Generated by `go run ./cmd/experiments -md EXPERIMENTS.md`.\n")
	md.WriteString("Every experiment rebuilds its simulated environment from scratch\n")
	md.WriteString("(deterministic seeds), runs DMetabench on it and compares the\n")
	md.WriteString("resulting *shape* against the corresponding thesis table/figure.\n")
	md.WriteString("Absolute numbers differ from the 2008 LRZ hardware by design.\n\n")

	for _, o := range outs {
		rep := o.rep
		fmt.Printf("%s [%.1fs real]\n\n", rep.String(), o.elapsed.Seconds())

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
	fmt.Printf("total: %.1fs (%d workers)\n", suiteWall.Seconds(), par.Workers())

	if *cells {
		printCellTimings(os.Stdout)
	}

	if *mdOut != "" {
		if err := os.WriteFile(*mdOut, []byte(md.String()), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		fmt.Println("wrote", *mdOut)
	}

	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
	}
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

// listExperiments prints one line per experiment: id, cell count and,
// when a BENCH_*.json snapshot is present, the last benched serial cost.
func listExperiments(suite []experiments.Experiment) {
	costs := benchCosts()
	fmt.Printf("%-5s %5s  %s\n", "id", "cells", "serial cost (last bench)")
	for _, e := range suite {
		cost := "-"
		if ns, ok := costs[e.ID]; ok {
			cost = fmt.Sprintf("%.1fs", ns/1e9)
		}
		fmt.Printf("%-5s %5d  %s\n", e.ID, e.Cells, cost)
	}
}

// benchCosts maps experiment ids to ns_per_op from the newest
// BENCH_*.json snapshot in the working directory (benchmark names are
// matched by their "Benchmark<ID>" prefix). Missing snapshot or
// unparseable content yields an empty map — -list then shows "-".
func benchCosts() map[string]float64 {
	files, err := os.ReadDir(".")
	if err != nil {
		return nil
	}
	var names []string
	for _, f := range files {
		if n := f.Name(); strings.HasPrefix(n, "BENCH_") && strings.HasSuffix(n, ".json") {
			names = append(names, n)
		}
	}
	if len(names) == 0 {
		return nil
	}
	sort.Strings(names) // date-stamped: the last sorts newest
	data, err := os.ReadFile(names[len(names)-1])
	if err != nil {
		return nil
	}
	var snap struct {
		Benchmarks map[string]struct {
			NsPerOp float64 `json:"ns_per_op"`
		} `json:"benchmarks"`
	}
	if err := json.Unmarshal(data, &snap); err != nil {
		return nil
	}
	costs := make(map[string]float64)
	for name, b := range snap.Benchmarks {
		rest, ok := strings.CutPrefix(name, "Benchmark")
		if !ok {
			continue
		}
		// "BenchmarkE19Failover" -> id "E19": letter prefix + digits.
		i := 1
		for i < len(rest) && rest[i] >= '0' && rest[i] <= '9' {
			i++
		}
		if i == 1 {
			continue
		}
		costs[rest[:i]] = b.NsPerOp
	}
	return costs
}

// printCellTimings renders the drained per-cell timing log grouped by
// experiment, slowest cell first — the -cells report used to spot the
// critical path of a parallel run.
func printCellTimings(w *os.File) {
	timings := par.DrainTimings()
	if len(timings) == 0 {
		fmt.Fprintln(w, "no cell timings recorded")
		return
	}
	byExp := map[string][]par.Timing{}
	var exps []string
	for _, t := range timings {
		exp := t.Label
		if i := strings.IndexByte(exp, '/'); i >= 0 {
			exp = exp[:i]
		}
		if _, ok := byExp[exp]; !ok {
			exps = append(exps, exp)
		}
		byExp[exp] = append(byExp[exp], t)
	}
	sort.Strings(exps)
	fmt.Fprintf(w, "\nper-cell wall-clock (%d cells):\n", len(timings))
	for _, exp := range exps {
		ts := byExp[exp]
		var sum time.Duration
		for _, t := range ts {
			sum += t.Wall
		}
		sort.SliceStable(ts, func(i, j int) bool { return ts[i].Wall > ts[j].Wall })
		fmt.Fprintf(w, "%s: %d cells, %.2fs total\n", exp, len(ts), sum.Seconds())
		for _, t := range ts {
			fmt.Fprintf(w, "  %-40s %8.3fs\n", t.Label, t.Wall.Seconds())
		}
	}
}
