package history

import (
	"cmp"
	"fmt"
	"io"
	"slices"
	"strings"
)

// WriteText renders the snapshot as `denali report` prints it: the
// totals, then one block per key in snapshot order (most observed
// first). A block names the GMA, its fingerprint, arch and strategy, and
// holds the key's counts, cycle distribution, verdicts and engine counts,
// wall/encode/solve digests, per-budget probe histogram and top-conflict
// probes. Where one fingerprint has several keys, the one with the
// lowest mean solve time is marked fastest.
func (s Snapshot) WriteText(w io.Writer) error {
	keys := map[string]int{} // per fingerprint
	fastest := map[string]*Aggregate{}
	for _, a := range s.Keys {
		keys[a.Fingerprint]++
		if f := fastest[a.Fingerprint]; a.Solve.Count > 0 && (f == nil || a.Solve.Mean() < f.Solve.Mean()) {
			fastest[a.Fingerprint] = a
		}
	}
	var b strings.Builder
	t := s.Totals
	fmt.Fprintf(&b, "%d reports, %d errors, %d distinct GMAs, %d keys", t.Reports, t.Errors, len(keys), len(s.Keys))
	if t.CacheHits > 0 || t.Coalesced > 0 {
		fmt.Fprintf(&b, ", %d cache hits, %d coalesced", t.CacheHits, t.Coalesced)
	}
	if t.Panics > 0 {
		fmt.Fprintf(&b, ", %d panics", t.Panics)
	}
	if t.Timeouts > 0 {
		fmt.Fprintf(&b, ", %d timeouts", t.Timeouts)
	}
	b.WriteByte('\n')
	for _, a := range s.Keys {
		strategy := a.Strategy
		if strategy == "" {
			strategy = "(unlabeled)"
		}
		fmt.Fprintf(&b, "\n%s  [%s]  %s  %s  goal-size=%d  compiles=%d", a.Name, a.Fingerprint, a.Arch, strategy, a.GoalSize, a.Compiles)
		for _, c := range []struct {
			name string
			n    uint64
		}{{"cache-hits", a.CacheHits}, {"coalesced", a.Coalesced}, {"errors", a.Errors}, {"panics", a.Panics}} {
			if c.n > 0 {
				fmt.Fprintf(&b, "  %s=%d", c.name, c.n)
			}
		}
		b.WriteByte('\n')
		for _, k := range sortedKeys(a.Cycles) {
			fmt.Fprintf(&b, "  cycles=%-3d x%d\n", k, a.Cycles[k])
		}
		if a.Compiles > 0 {
			fmt.Fprintf(&b, "  %3d%% optimal  %d certified  %d probes  %d conflicts",
				100*a.Optimal/a.Compiles, a.Certified, a.Probes, a.Conflicts)
			if len(a.Engines) > 0 {
				b.WriteString("  engines:")
				for _, e := range sortedKeys(a.Engines) {
					fmt.Fprintf(&b, " %s=%d", e, a.Engines[e])
				}
			}
			if keys[a.Fingerprint] > 1 && fastest[a.Fingerprint] == a {
				b.WriteString("  <- fastest")
			}
			b.WriteByte('\n')
			for _, d := range []struct {
				name string
				d    Digest
			}{{"wall", a.Wall}, {"encode", a.Encode}, {"solve", a.Solve}} {
				fmt.Fprintf(&b, "  %-6s %9.3f ms mean  %9.3f p50  %9.3f p95  %9.3f max\n",
					d.name, d.d.Mean(), d.d.Quantile(0.5), d.d.Quantile(0.95), d.d.Max)
			}
		}
		for _, k := range sortedKeys(a.ProbeHist) {
			c := a.ProbeHist[k]
			fmt.Fprintf(&b, "  K=%-3d sat=%-4d unsat=%-4d unknown=%d\n", k, c.Sat, c.Unsat, c.Unknown)
		}
		for _, p := range a.TopConflicts {
			fmt.Fprintf(&b, "  top-conflicts K=%-3d %-7s %8d conflicts  (request %s)\n", p.K, p.Result, p.Conflicts, p.RequestID)
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func sortedKeys[K cmp.Ordered, V any](m map[K]V) []K {
	ks := make([]K, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	slices.Sort(ks)
	return ks
}
