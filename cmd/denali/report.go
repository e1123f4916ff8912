package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/flight"
)

// reportMain implements `denali report`, the offline reader of flight
// report logs (`denali -report-out`, `denali-bench -report-out`):
//
//	denali report reports.jsonl                     per-GMA flight summary
//	denali report -top 10 reports.jsonl             the 10 most-compiled GMAs
//	denali report -fingerprint ab12 reports.jsonl   filter by fp prefix
//	denali report -json reports.jsonl               the kept reports as JSONL
//
// Exit codes: 0 ok, 1 error, 2 usage.
func reportMain(args []string) {
	if code := runReport(args, os.Stdout, os.Stderr); code != 0 {
		os.Exit(code)
	}
}

// runReport is reportMain with injectable streams and an exit code
// instead of os.Exit, so tests drive the full CLI surface.
func runReport(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("denali report", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		jsonOut  = fs.Bool("json", false, "print the kept reports as JSONL instead of the summary")
		topN     = fs.Int("top", 0, "keep only the GMA records of the N most-compiled GMAs (0 = all)")
		fpPrefix = fs.String("fingerprint", "", "keep only the GMA records whose fingerprint starts with this prefix")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() == 0 {
		fmt.Fprintln(stderr, "usage: denali report [flags] reports.jsonl [more.jsonl ...]")
		fs.Usage()
		return 2
	}
	var reps []flight.Report
	for _, path := range fs.Args() {
		r, err := flight.ReadLogFile(path)
		if err != nil {
			fmt.Fprintln(stderr, "denali:", err)
			return 1
		}
		reps = append(reps, r...)
	}
	if *fpPrefix != "" {
		reps = keepGMAs(reps, func(fp string) bool { return strings.HasPrefix(fp, *fpPrefix) })
	}
	if *topN > 0 {
		gmas := flight.Summarize(reps).GMAs // most-compiled first
		top := map[string]bool{}
		for _, g := range gmas[:min(*topN, len(gmas))] {
			top[g.Fingerprint] = true
		}
		reps = keepGMAs(reps, func(fp string) bool { return top[fp] })
	}

	if *jsonOut {
		log := flight.NewLog(stdout)
		for _, rep := range reps {
			if err := log.Write(rep); err != nil {
				fmt.Fprintln(stderr, "denali:", err)
				return 1
			}
		}
		return 0
	}
	if err := flight.Summarize(reps).WriteText(stdout); err != nil {
		fmt.Fprintln(stderr, "denali:", err)
		return 1
	}
	return 0
}

// keepGMAs keeps only the GMA records whose fingerprint passes keep;
// reports left with no GMA record are dropped.
func keepGMAs(reps []flight.Report, keep func(fp string) bool) []flight.Report {
	var out []flight.Report
	for _, rep := range reps {
		var gmas []flight.GMAReport
		for _, g := range rep.GMAs {
			if keep(g.Fingerprint) {
				gmas = append(gmas, g)
			}
		}
		if len(gmas) == 0 {
			continue
		}
		rep.GMAs = gmas
		out = append(out, rep)
	}
	return out
}
