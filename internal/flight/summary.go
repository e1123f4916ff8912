package flight

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// Summary aggregates a report log per GMA (keyed by canonical
// fingerprint), the query `denali report` answers: how often each GMA was
// compiled, with which strategies at what cost, how its probe ladder
// distributes over budgets, and which probes were the conflict hot spots
// — the raw material for learned budget prediction and cache keying.
type Summary struct {
	Reports int
	Errors  int
	// CacheHits / Coalesced count GMA records answered by the compile
	// cache rather than a fresh pipeline run, across all reports.
	CacheHits int
	Coalesced int
	// Strategies counts reports per request-level strategy.
	Strategies map[string]int
	GMAs       []*GMASummary
}

// StrategyStat aggregates one strategy's record on one GMA.
type StrategyStat struct {
	Compiles     int
	Optimal      int
	SolveMillis  float64 // total, across compiles
	EncodeMillis float64 // total, across compiles
	Conflicts    int64   // total, across probes
	// Engines counts which search engine produced each schedule ("sat" or
	// "stochastic"); under the stochastic strategy, "sat" counts the GMAs
	// that fell back to the descend sweep. Rows from logs predating the
	// engine label stay uncounted (nil map).
	Engines map[string]int
}

// MeanSolveMillis is the strategy's mean SAT time per compile.
func (s *StrategyStat) MeanSolveMillis() float64 {
	if s.Compiles == 0 {
		return 0
	}
	return s.SolveMillis / float64(s.Compiles)
}

// MeanEncodeMillis is the strategy's mean encode time per compile.
func (s *StrategyStat) MeanEncodeMillis() float64 {
	if s.Compiles == 0 {
		return 0
	}
	return s.EncodeMillis / float64(s.Compiles)
}

// ProbeCell is the outcome histogram of one budget K.
type ProbeCell struct {
	Sat, Unsat, Unknown int
}

// ProbeRef points at one recorded probe, for the top-conflicts list.
type ProbeRef struct {
	RequestID string
	Strategy  string
	K         int
	Result    string
	Conflicts int64
}

// GMASummary is the per-GMA aggregate.
type GMASummary struct {
	Fingerprint string
	// Name is the most frequent name compiled under this fingerprint
	// (alpha-renaming can give one computation several names).
	Name     string
	names    map[string]int
	Compiles int
	Errors   int
	// CacheHits / Coalesced count the subset of Compiles answered from
	// the compile cache (the cycle distribution still includes them; the
	// probe and strategy aggregates do not, since a cached row replays
	// the origin compile's ladder and would double-count its work).
	CacheHits int
	Coalesced int
	// Cycles distributes the winning budget; a well-behaved GMA has one.
	Cycles     map[int]int
	Strategies map[string]*StrategyStat
	// ProbeHist maps budget K to its outcome histogram across compiles.
	ProbeHist map[int]*ProbeCell
	// TopConflicts holds the most expensive probes seen (descending).
	TopConflicts   []ProbeRef
	TotalConflicts int64
	GoalSize       int
}

const topConflictsKept = 3

// Summarize aggregates a report log. Reports and GMA records with empty
// fingerprints (failed before description) group under "".
func Summarize(reps []Report) *Summary {
	s := &Summary{Strategies: map[string]int{}}
	byFP := map[string]*GMASummary{}
	for _, rep := range reps {
		s.Reports++
		if rep.Error != "" {
			s.Errors++
		}
		if rep.Strategy != "" {
			s.Strategies[rep.Strategy]++
		}
		for _, g := range rep.GMAs {
			gs := byFP[g.Fingerprint]
			if gs == nil {
				gs = &GMASummary{
					Fingerprint: g.Fingerprint,
					names:       map[string]int{},
					Cycles:      map[int]int{},
					Strategies:  map[string]*StrategyStat{},
					ProbeHist:   map[int]*ProbeCell{},
				}
				byFP[g.Fingerprint] = gs
			}
			gs.names[g.Name]++
			gs.GoalSize = g.GoalSize
			if g.Error != "" {
				gs.Errors++
				continue
			}
			gs.Compiles++
			gs.Cycles[g.Cycles]++
			if g.CacheHit || g.Coalesced {
				if g.CacheHit {
					gs.CacheHits++
					s.CacheHits++
				} else {
					gs.Coalesced++
					s.Coalesced++
				}
				// The row's match stats and probe ladder are the origin
				// compile's, replayed from the cache — aggregating them
				// again would double-count solver work that ran once.
				continue
			}
			st := gs.Strategies[rep.Strategy]
			if st == nil {
				st = &StrategyStat{}
				gs.Strategies[rep.Strategy] = st
			}
			st.Compiles++
			if g.OptimalProven {
				st.Optimal++
			}
			if g.Engine != "" {
				if st.Engines == nil {
					st.Engines = map[string]int{}
				}
				st.Engines[g.Engine]++
			}
			st.SolveMillis += g.SolveMillis
			st.EncodeMillis += g.EncodeMillis
			for _, p := range g.Probes {
				st.Conflicts += p.Conflicts
				gs.TotalConflicts += p.Conflicts
				cell := gs.ProbeHist[p.K]
				if cell == nil {
					cell = &ProbeCell{}
					gs.ProbeHist[p.K] = cell
				}
				switch strings.ToLower(p.Result) {
				case "sat":
					cell.Sat++
				case "unsat":
					cell.Unsat++
				default:
					cell.Unknown++
				}
				gs.noteConflicts(ProbeRef{
					RequestID: rep.ID, Strategy: rep.Strategy,
					K: p.K, Result: p.Result, Conflicts: p.Conflicts,
				})
			}
		}
	}
	for _, gs := range byFP {
		best, bestN := "", -1
		for name, n := range gs.names {
			if n > bestN || (n == bestN && name < best) {
				best, bestN = name, n
			}
		}
		gs.Name = best
		s.GMAs = append(s.GMAs, gs)
	}
	sort.Slice(s.GMAs, func(i, j int) bool {
		a, b := s.GMAs[i], s.GMAs[j]
		if a.Compiles != b.Compiles {
			return a.Compiles > b.Compiles
		}
		if a.Name != b.Name {
			return a.Name < b.Name
		}
		return a.Fingerprint < b.Fingerprint
	})
	return s
}

// noteConflicts keeps the top-K most conflict-heavy probes, descending.
func (g *GMASummary) noteConflicts(p ProbeRef) {
	i := len(g.TopConflicts)
	for i > 0 && g.TopConflicts[i-1].Conflicts < p.Conflicts {
		i--
	}
	if i >= topConflictsKept {
		return
	}
	g.TopConflicts = append(g.TopConflicts, ProbeRef{})
	copy(g.TopConflicts[i+1:], g.TopConflicts[i:])
	g.TopConflicts[i] = p
	if len(g.TopConflicts) > topConflictsKept {
		g.TopConflicts = g.TopConflicts[:topConflictsKept]
	}
}

// WriteText renders the summary as fixed-width text: one global header,
// then a block per GMA with its cycle distribution, per-strategy record
// (compiles, optimality rate, mean SAT time — the lowest mean marked as
// the winner), probe histogram by budget, and top-conflict probes.
func (s *Summary) WriteText(w io.Writer) error {
	var b strings.Builder
	fmt.Fprintf(&b, "%d reports, %d errors, %d distinct GMAs", s.Reports, s.Errors, len(s.GMAs))
	if s.CacheHits > 0 || s.Coalesced > 0 {
		fmt.Fprintf(&b, ", %d cache hits, %d coalesced", s.CacheHits, s.Coalesced)
	}
	b.WriteByte('\n')
	for _, k := range sortedKeys(s.Strategies) {
		fmt.Fprintf(&b, "  strategy %-10s %6d reports\n", k, s.Strategies[k])
	}
	for _, g := range s.GMAs {
		fmt.Fprintf(&b, "\n%s  [%s]  goal-size=%d  compiles=%d", g.Name, g.Fingerprint, g.GoalSize, g.Compiles)
		if g.CacheHits > 0 {
			fmt.Fprintf(&b, "  cache-hits=%d", g.CacheHits)
		}
		if g.Coalesced > 0 {
			fmt.Fprintf(&b, "  coalesced=%d", g.Coalesced)
		}
		if g.Errors > 0 {
			fmt.Fprintf(&b, "  errors=%d", g.Errors)
		}
		b.WriteByte('\n')
		cycles := sortedInts(g.Cycles)
		for _, k := range cycles {
			fmt.Fprintf(&b, "  cycles=%-3d x%d\n", k, g.Cycles[k])
		}
		winner, winMean := "", 0.0
		for name, st := range g.Strategies {
			if m := st.MeanSolveMillis(); winner == "" || m < winMean || (m == winMean && name < winner) {
				winner, winMean = name, m
			}
		}
		for _, name := range sortedKeys(g.Strategies) {
			st := g.Strategies[name]
			mark := ""
			if name == winner && len(g.Strategies) > 1 {
				mark = "  <- fastest"
			}
			label := name
			if label == "" {
				label = "(unlabeled)"
			}
			engines := ""
			if len(st.Engines) > 0 {
				parts := make([]string, 0, len(st.Engines))
				for _, e := range sortedKeys(st.Engines) {
					parts = append(parts, fmt.Sprintf("%s=%d", e, st.Engines[e]))
				}
				engines = "  engines: " + strings.Join(parts, " ")
			}
			fmt.Fprintf(&b, "  strategy %-12s %4d compiles  %3d%% optimal  %9.3f ms mean encode  %9.3f ms mean solve  %8d conflicts%s%s\n",
				label, st.Compiles, pct(st.Optimal, st.Compiles), st.MeanEncodeMillis(), st.MeanSolveMillis(), st.Conflicts, engines, mark)
		}
		for _, k := range sortedInts(g.ProbeHist) {
			c := g.ProbeHist[k]
			fmt.Fprintf(&b, "  K=%-3d sat=%-4d unsat=%-4d unknown=%d\n", k, c.Sat, c.Unsat, c.Unknown)
		}
		for _, p := range g.TopConflicts {
			if p.Conflicts == 0 {
				continue
			}
			fmt.Fprintf(&b, "  top-conflicts K=%-3d %-7s %8d conflicts  (request %s)\n",
				p.K, p.Result, p.Conflicts, p.RequestID)
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func pct(n, of int) int {
	if of == 0 {
		return 0
	}
	return 100 * n / of
}

func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

func sortedInts[V any](m map[int]V) []int {
	ks := make([]int, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Ints(ks)
	return ks
}
