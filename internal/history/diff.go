package history

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"repro/internal/flight"
)

// The regression sentinel: load two telemetry artifacts into a common
// row shape, compare every key present on both sides against
// configurable thresholds, and emit a machine-readable verdict. Both
// sides come from the warehouse — a snapshot file, a live warehouse
// directory, or a flight-report JSONL log ingested into a scratch
// warehouse — so `-diff old-snapshot.json warehouse-dir/` gates a deploy
// on live history. A `#scratch` or `#incremental` suffix selects one
// search mode and drops it from the key, which is what lets the two
// modes of one corpus line up.

// CompRow is one comparable row. Metrics below zero are absent (a key
// with no fresh compile has no timings or conflicts, and one with no
// answer has no cycle count); absent metrics are skipped, never treated
// as zero.
type CompRow struct {
	Key      string  `json:"key"`
	Name     string  `json:"name,omitempty"`
	Compiles uint64  `json:"compiles,omitempty"`
	WallMS   float64 `json:"wall_ms"`
	SolveMS  float64 `json:"solve_ms"`
	// Conflicts is the mean solver-conflict total per compile.
	Conflicts float64 `json:"conflicts"`
	Cycles    float64 `json:"cycles"`
	ErrorRate float64 `json:"error_rate"`
}

// Comparable is one loaded side of a diff.
type Comparable struct {
	Source string             `json:"source"`
	Kind   string             `json:"kind"`
	View   string             `json:"view,omitempty"`
	Rows   map[string]CompRow `json:"-"`
}

// Thresholds configure what counts as a regression. Ratios compare
// candidate/baseline; floors keep measurement noise on micro-costs from
// flagging.
type Thresholds struct {
	// WallRatio flags candidate wall (or solve) time above
	// baseline×ratio, provided the candidate exceeds MinWallMS.
	WallRatio float64 `json:"wall_ratio"`
	MinWallMS float64 `json:"min_wall_ms"`
	// ConflictRatio flags candidate conflicts above baseline×ratio,
	// provided the candidate exceeds MinConflicts.
	ConflictRatio float64 `json:"conflict_ratio"`
	MinConflicts  float64 `json:"min_conflicts"`
	// CycleDelta flags any candidate cycle count more than delta above
	// baseline (0 = any increase is a regression — cycles are the
	// compiler's answer, not its cost).
	CycleDelta float64 `json:"cycle_delta"`
	// ErrorRateDelta flags an error-rate increase above delta.
	ErrorRateDelta float64 `json:"error_rate_delta"`
}

// DefaultThresholds: 1.5× on time, 2× on conflicts (floored), any cycle
// increase, +5% errors.
func DefaultThresholds() Thresholds {
	return Thresholds{
		WallRatio:      1.5,
		MinWallMS:      0.01,
		ConflictRatio:  2.0,
		MinConflicts:   64,
		CycleDelta:     0,
		ErrorRateDelta: 0.05,
	}
}

// Delta is one per-key, per-metric comparison that crossed a threshold.
type Delta struct {
	Key      string  `json:"key"`
	Name     string  `json:"name,omitempty"`
	Metric   string  `json:"metric"`
	Baseline float64 `json:"baseline"`
	Cand     float64 `json:"candidate"`
	// Ratio is candidate/baseline (0 when the baseline is 0).
	Ratio  float64 `json:"ratio,omitempty"`
	Reason string  `json:"reason"`
}

// DiffSchema tags sentinel verdicts.
const DiffSchema = "denali-history-diff/v1"

// Verdict is the sentinel's machine-readable output.
type Verdict struct {
	Schema     string     `json:"schema"`
	Baseline   string     `json:"baseline"`
	Candidate  string     `json:"candidate"`
	Thresholds Thresholds `json:"thresholds"`

	Compared      int      `json:"compared"`
	OnlyBaseline  []string `json:"only_baseline,omitempty"`
	OnlyCandidate []string `json:"only_candidate,omitempty"`

	Regressions  []Delta `json:"regressions"`
	Improvements []Delta `json:"improvements,omitempty"`
	Clean        bool    `json:"clean"`
}

// Diff compares two loaded sides key by key.
func Diff(base, cand *Comparable, th Thresholds) *Verdict {
	v := &Verdict{
		Schema:     DiffSchema,
		Baseline:   base.Source,
		Candidate:  cand.Source,
		Thresholds: th,
	}
	keys := make([]string, 0, len(base.Rows))
	for k := range base.Rows {
		if _, ok := cand.Rows[k]; ok {
			keys = append(keys, k)
		} else {
			v.OnlyBaseline = append(v.OnlyBaseline, k)
		}
	}
	for k := range cand.Rows {
		if _, ok := base.Rows[k]; !ok {
			v.OnlyCandidate = append(v.OnlyCandidate, k)
		}
	}
	sort.Strings(keys)
	sort.Strings(v.OnlyBaseline)
	sort.Strings(v.OnlyCandidate)
	for _, k := range keys {
		b, c := base.Rows[k], cand.Rows[k]
		v.Compared++
		v.diffTime(b, c, "wall_ms", b.WallMS, c.WallMS, th)
		v.diffTime(b, c, "solve_ms", b.SolveMS, c.SolveMS, th)
		if b.Conflicts >= 0 && c.Conflicts >= 0 && c.Conflicts >= th.MinConflicts {
			if c.Conflicts > b.Conflicts*th.ConflictRatio {
				v.add(true, b, c, "conflicts", b.Conflicts, c.Conflicts,
					fmt.Sprintf("conflicts grew %s (> %.2fx)", ratioText(b.Conflicts, c.Conflicts), th.ConflictRatio))
			}
		}
		if b.Cycles >= 0 && c.Cycles >= 0 {
			switch {
			case c.Cycles > b.Cycles+th.CycleDelta:
				v.add(true, b, c, "cycles", b.Cycles, c.Cycles,
					fmt.Sprintf("cycles grew %g -> %g", b.Cycles, c.Cycles))
			case c.Cycles < b.Cycles:
				v.add(false, b, c, "cycles", b.Cycles, c.Cycles, "fewer cycles")
			}
		}
		if b.ErrorRate >= 0 && c.ErrorRate >= 0 && c.ErrorRate > b.ErrorRate+th.ErrorRateDelta {
			v.add(true, b, c, "error_rate", b.ErrorRate, c.ErrorRate,
				fmt.Sprintf("error rate grew %.3f -> %.3f", b.ErrorRate, c.ErrorRate))
		}
	}
	v.Clean = len(v.Regressions) == 0
	return v
}

// diffTime applies the ratio-with-floor rule shared by the wall and
// solve metrics.
func (v *Verdict) diffTime(b, c CompRow, metric string, bv, cv float64, th Thresholds) {
	if bv < 0 || cv < 0 {
		return
	}
	switch {
	case cv >= th.MinWallMS && cv > bv*th.WallRatio:
		v.add(true, b, c, metric, bv, cv,
			fmt.Sprintf("%s grew %s (> %.2fx)", metric, ratioText(bv, cv), th.WallRatio))
	case bv >= th.MinWallMS && cv*th.WallRatio < bv:
		v.add(false, b, c, metric, bv, cv,
			fmt.Sprintf("%s shrank %s", metric, ratioText(bv, cv)))
	}
}

func ratioText(b, c float64) string {
	if b <= 0 {
		return fmt.Sprintf("%.3g -> %.3g", b, c)
	}
	return fmt.Sprintf("%.3g -> %.3g (%.2fx)", b, c, c/b)
}

func (v *Verdict) add(regressed bool, b, c CompRow, metric string, bv, cv float64, reason string) {
	d := Delta{Key: b.Key, Name: firstNonEmpty(c.Name, b.Name), Metric: metric,
		Baseline: bv, Cand: cv, Reason: reason}
	if bv > 0 {
		d.Ratio = cv / bv
	}
	if regressed {
		v.Regressions = append(v.Regressions, d)
	} else {
		v.Improvements = append(v.Improvements, d)
	}
}

func firstNonEmpty(a, b string) string {
	if a != "" {
		return a
	}
	return b
}

// WriteText renders the verdict for humans: every regression, a count of
// improvements, and the coverage line the exit code summarizes.
func (v *Verdict) WriteText(w io.Writer) error {
	var b strings.Builder
	fmt.Fprintf(&b, "sentinel: %s vs %s\n", v.Baseline, v.Candidate)
	for _, d := range v.Regressions {
		name := d.Name
		if name != "" {
			name = " (" + name + ")"
		}
		fmt.Fprintf(&b, "REGRESSION %s%s %s: %s\n", d.Key, name, d.Metric, d.Reason)
	}
	for _, d := range v.Improvements {
		name := d.Name
		if name != "" {
			name = " (" + name + ")"
		}
		fmt.Fprintf(&b, "improved   %s%s %s: %s\n", d.Key, name, d.Metric, d.Reason)
	}
	fmt.Fprintf(&b, "%d keys compared (%d baseline-only, %d candidate-only): %d regressions, %d improvements\n",
		v.Compared, len(v.OnlyBaseline), len(v.OnlyCandidate), len(v.Regressions), len(v.Improvements))
	if v.Compared == 0 {
		b.WriteString("note: no comparable keys — the two sides measure different things\n")
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// ---- loaders ----

// LoadComparable loads one side of a diff from a spec of the form
// path[#view]. The path may be a warehouse snapshot JSON, a warehouse
// directory, or a flight-report JSONL log; the view, scratch or
// incremental, keeps one search mode.
func LoadComparable(spec string) (*Comparable, error) {
	path, view := spec, ""
	if i := strings.LastIndex(spec, "#"); i >= 0 {
		path, view = spec[:i], spec[i+1:]
	}
	if fi, err := os.Stat(path); err == nil && fi.IsDir() {
		snap, err := LoadDir(path)
		if err != nil {
			return nil, err
		}
		return comparableFromSnapshot(spec, view, snap)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var head struct {
		Schema string `json:"schema"`
	}
	if err := json.Unmarshal(raw, &head); err == nil && head.Schema != "" {
		if !strings.HasPrefix(head.Schema, "denali-history/") {
			return nil, fmt.Errorf("history: %s: unknown schema %q", path, head.Schema)
		}
		var snap Snapshot
		if err := json.Unmarshal(raw, &snap); err != nil {
			return nil, fmt.Errorf("history: %s: %w", path, err)
		}
		return comparableFromSnapshot(spec, view, snap)
	}
	// Not a single JSON document: try a flight-report JSONL log.
	reps, err := flight.ReadLogFile(path)
	if err != nil {
		return nil, fmt.Errorf("history: %s is neither a known JSON artifact nor a flight log: %w", path, err)
	}
	w := New(Config{})
	for _, rep := range reps {
		w.Ingest(rep)
	}
	c, cerr := comparableFromSnapshot(spec, view, w.Snapshot())
	if cerr != nil {
		return nil, cerr
	}
	c.Kind = "flight-log"
	return c, nil
}

// comparableFromSnapshot maps warehouse aggregates to rows: wall/solve
// p95, mean conflicts per compile, the modal cycle count, and the error
// rate. A scratch|incremental view filters by mode and drops it from
// the key so the two modes of one corpus line up.
func comparableFromSnapshot(source, view string, snap Snapshot) (*Comparable, error) {
	var wantInc *bool
	switch view {
	case "":
	case "scratch", "incremental":
		inc := view == "incremental"
		wantInc = &inc
	default:
		return nil, fmt.Errorf("history: unknown view %q for a warehouse source (want scratch or incremental)", view)
	}
	c := &Comparable{Source: source, Kind: "history-snapshot", View: view, Rows: map[string]CompRow{}}
	for _, a := range snap.Keys {
		if wantInc != nil && a.Incremental != *wantInc {
			continue
		}
		key := a.Key.String()
		if wantInc != nil {
			key = a.Fingerprint + "|" + a.Arch + "|" + a.Strategy
		}
		row := CompRow{
			Key:      key,
			Name:     topName(a.Names),
			Compiles: a.Compiles,
			WallMS:   -1, SolveMS: -1, Conflicts: -1,
			Cycles:    float64(a.TopCycles()),
			ErrorRate: a.ErrorRate(),
		}
		if a.Compiles > 0 {
			row.WallMS = a.Wall.Quantile(0.95)
			row.SolveMS = a.Solve.Quantile(0.95)
			row.Conflicts = float64(a.Conflicts) / float64(a.Compiles)
		}
		c.Rows[key] = row
	}
	return c, nil
}
