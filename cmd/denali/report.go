package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/flight"
	"repro/internal/history"
)

// reportMain implements `denali report`, the offline side of the
// telemetry warehouse:
//
//	denali report reports.jsonl                  per-GMA flight summary
//	denali report -top 10 reports.jsonl          warehouse aggregate table
//	denali report -fingerprint ab12 reports.jsonl   filter by fp prefix
//	denali report -ingest DIR reports.jsonl      fold logs into a warehouse
//	denali report -diff BASE CAND                regression sentinel
//
// The sentinel's BASE/CAND are path[#view] specs accepted by
// history.LoadComparable: warehouse snapshots or directories, or flight
// JSONL logs (e.g. reports.jsonl#scratch vs reports.jsonl#incremental).
// Exit codes: 0 clean, 1 error, 2 usage, 3 regression detected — so CI
// gates on the code alone.
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
		jsonOut  = fs.Bool("json", false, "machine output: report JSONL (summaries), snapshot JSON (-ingest/-top), verdict JSON (-diff)")
		topN     = fs.Int("top", 0, "print the warehouse aggregate table limited to the N most-compiled keys (0 = flight summary)")
		fpPrefix = fs.String("fingerprint", "", "only GMA records whose fingerprint starts with this prefix")
		ingest   = fs.String("ingest", "", "fold the report logs into the warehouse at this directory (journal + snapshot)")
		diff     = fs.Bool("diff", false, "regression sentinel: compare two path[#view] specs, exit 3 on regression")

		wallRatio     = fs.Float64("wall-ratio", 0, "sentinel: flag wall/solve time above baseline*ratio (0 = default)")
		minWallMS     = fs.Float64("min-wall-ms", -1, "sentinel: ignore candidate times below this floor, in ms (-1 = default)")
		conflictRatio = fs.Float64("conflict-ratio", 0, "sentinel: flag conflicts above baseline*ratio (0 = default)")
		minConflicts  = fs.Float64("min-conflicts", -1, "sentinel: ignore candidate conflict counts below this floor (-1 = default)")
		cycleDelta    = fs.Float64("cycle-delta", 0, "sentinel: allowed cycle-count increase before flagging")
		errRateDelta  = fs.Float64("error-rate-delta", -1, "sentinel: allowed error-rate increase before flagging (-1 = default)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *diff {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: denali report -diff [flags] <baseline> <candidate>")
			fmt.Fprintln(stderr, "  each side is path[#view]: a history snapshot/dir or flight JSONL")
			return 2
		}
		th := history.DefaultThresholds()
		if *wallRatio > 0 {
			th.WallRatio = *wallRatio
		}
		if *minWallMS >= 0 {
			th.MinWallMS = *minWallMS
		}
		if *conflictRatio > 0 {
			th.ConflictRatio = *conflictRatio
		}
		if *minConflicts >= 0 {
			th.MinConflicts = *minConflicts
		}
		if *cycleDelta > 0 {
			th.CycleDelta = *cycleDelta
		}
		if *errRateDelta >= 0 {
			th.ErrorRateDelta = *errRateDelta
		}
		return runDiff(fs.Arg(0), fs.Arg(1), th, *jsonOut, stdout, stderr)
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
	reps = filterReports(reps, *fpPrefix)

	if *ingest != "" {
		w, err := history.Open(history.Config{Dir: *ingest})
		if err != nil {
			fmt.Fprintln(stderr, "denali:", err)
			return 1
		}
		for _, rep := range reps {
			w.Ingest(rep)
		}
		snap := w.Snapshot()
		if err := w.Close(); err != nil {
			fmt.Fprintln(stderr, "denali:", err)
			return 1
		}
		if *jsonOut {
			enc := json.NewEncoder(stdout)
			enc.SetIndent("", " ")
			enc.Encode(snap)
			return 0
		}
		fmt.Fprintf(stdout, "ingested %d reports (%d GMA records) into %s: %d keys, %d reports total\n",
			len(reps), countGMAs(reps), *ingest, len(snap.Keys), snap.Totals.Reports)
		return 0
	}

	// -json without -top dumps the (possibly fingerprint-filtered)
	// reports back out as JSONL; -top switches to the aggregate table
	// (JSON snapshot form under -json).
	if *jsonOut && *topN == 0 {
		log := flight.NewLog(stdout)
		for _, rep := range reps {
			if err := log.Write(rep); err != nil {
				fmt.Fprintln(stderr, "denali:", err)
				return 1
			}
		}
		return 0
	}
	if *topN > 0 || *fpPrefix != "" {
		return writeAggregateTable(reps, *topN, *jsonOut, stdout)
	}
	if err := flight.Summarize(reps).WriteText(stdout); err != nil {
		fmt.Fprintln(stderr, "denali:", err)
		return 1
	}
	return 0
}

// filterReports keeps only GMA records matching the fingerprint prefix;
// reports left with no GMAs (and no request-level failure worth keeping)
// are dropped. An empty prefix keeps everything.
func filterReports(reps []flight.Report, fpPrefix string) []flight.Report {
	if fpPrefix == "" {
		return reps
	}
	var out []flight.Report
	for _, rep := range reps {
		var gmas []flight.GMAReport
		for _, g := range rep.GMAs {
			if strings.HasPrefix(g.Fingerprint, fpPrefix) {
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

func countGMAs(reps []flight.Report) int {
	n := 0
	for _, rep := range reps {
		n += len(rep.GMAs)
	}
	return n
}

// writeAggregateTable folds the reports into a scratch warehouse and
// prints one line per key, most-compiled first, limited to topN (0 = all).
func writeAggregateTable(reps []flight.Report, topN int, jsonOut bool, stdout io.Writer) int {
	w := history.New(history.Config{})
	for _, rep := range reps {
		w.Ingest(rep)
	}
	snap := w.Snapshot()
	if topN > 0 && len(snap.Keys) > topN {
		snap.Keys = snap.Keys[:topN]
	}
	if jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", " ")
		enc.Encode(snap)
		return 0
	}
	fmt.Fprintf(stdout, "%-16s %-12s %-11s %-8s %8s %6s %6s %6s %9s %9s %10s\n",
		"FINGERPRINT", "NAME", "MODE", "STRAT", "COMPILES", "HITS", "ERRS", "CYCLES", "P50MS", "P95MS", "CONFLICTS")
	for _, a := range snap.Keys {
		mode := "scratch"
		if a.Incremental {
			mode = "incremental"
		}
		fp := a.Fingerprint
		if len(fp) > 16 {
			fp = fp[:16]
		}
		fmt.Fprintf(stdout, "%-16s %-12s %-11s %-8s %8d %6d %6d %6d %9.3f %9.3f %10d\n",
			fp, a.Name, mode, a.Strategy,
			a.Compiles, a.CacheHits+a.Coalesced, a.Errors,
			a.TopCycles(), a.Solve.Quantile(0.5), a.Solve.Quantile(0.95), a.Conflicts)
	}
	fmt.Fprintf(stdout, "%d keys shown of %d; %d reports, %d GMA records\n",
		len(snap.Keys), w.Len(), snap.Totals.Reports, snap.Totals.GMAs)
	return 0
}

// runDiff executes the regression sentinel over two loaded sides.
func runDiff(baseSpec, candSpec string, th history.Thresholds, jsonOut bool, stdout, stderr io.Writer) int {
	base, err := history.LoadComparable(baseSpec)
	if err != nil {
		fmt.Fprintln(stderr, "denali:", err)
		return 1
	}
	cand, err := history.LoadComparable(candSpec)
	if err != nil {
		fmt.Fprintln(stderr, "denali:", err)
		return 1
	}
	v := history.Diff(base, cand, th)
	if jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", " ")
		enc.Encode(v)
	} else if err := v.WriteText(stdout); err != nil {
		fmt.Fprintln(stderr, "denali:", err)
		return 1
	}
	if !v.Clean {
		return 3
	}
	return 0
}
