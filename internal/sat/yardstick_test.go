//go:build unix

package sat_test

import (
	"flag"
	"fmt"
	"slices"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro"
	"repro/internal/programs"
	"repro/internal/sat"
)

var yardstickSeeds = flag.Int("yardstick", 0, "run TestYardstick over this many seeded activity perturbations")

// yardstickCorpus is the golden corpus (internal/core's goldenCorpus):
// every example program plus the E13 benchmark programs. Its byteswap5
// is the same GMA as perfbench's fixed kernels shuffle.
var yardstickCorpus = []struct {
	name string
	src  string
}{
	{"quickstart", programs.Quickstart},
	{"byteswap4", programs.Byteswap4},
	{"byteswap5", programs.Byteswap5},
	{"copyloop", programs.CopyLoop},
	{"rowop", programs.Rowop},
	{"lcp2", programs.Lcp2},
	{"sumloop", programs.SumLoop},
	{"checksum", programs.Checksum},
}

// TestYardstick judges a change to the search on a spread of draws
// rather than on one. It compiles the golden corpus with Certify, once
// unperturbed and once under each activity-noise seed 1..N (N from
// -yardstick; skipped without it), and prints each GMA's ladder
// conflicts (the sum over its probes): the unperturbed draw, then the
// min, median, upper quartile and max over the seeds, and the median CPU
// time per corpus pass. A seed's conflicts repeat exactly from run to
// run; CPU times do not. Every seed must reach the unperturbed answers.
//
//	go test ./internal/sat -run '^TestYardstick$' -yardstick 40 -v
func TestYardstick(t *testing.T) {
	n := *yardstickSeeds
	if n <= 0 {
		t.Skip("pass -yardstick N to run the seeded yardstick")
	}
	defer sat.SetNoiseSeed(0)
	type gmaRow struct {
		name        string
		cycles      int
		unperturbed int64
		seeded      []float64
	}
	var rows []*gmaRow
	var cpu []float64 // milliseconds per seeded pass
	var cpu0 float64
	for seed := 0; seed <= n; seed++ {
		sat.SetNoiseSeed(uint64(seed))
		start := cpuTime(t)
		i := 0
		for _, p := range yardstickCorpus {
			res, err := repro.Compile(p.src, repro.Options{Certify: true})
			if err != nil {
				t.Fatalf("seed %d: %s: %v", seed, p.name, err)
			}
			for _, proc := range res.Procs {
				for _, g := range proc.GMAs {
					var conflicts int64
					for _, pr := range g.Probes {
						conflicts += pr.Conflicts
					}
					if seed == 0 {
						rows = append(rows, &gmaRow{name: g.Name, cycles: g.Cycles, unperturbed: conflicts})
					} else if r := rows[i]; g.Name != r.name || g.Cycles != r.cycles {
						t.Errorf("seed %d: %s took %d cycles, unperturbed %s took %d", seed, g.Name, g.Cycles, r.name, r.cycles)
					} else {
						r.seeded = append(r.seeded, float64(conflicts))
					}
					i++
				}
			}
		}
		ms := float64(cpuTime(t)-start) / float64(time.Millisecond)
		if seed == 0 {
			cpu0 = ms
		} else {
			cpu = append(cpu, ms)
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "yardstick: %d seeds, linear search, Certify; ladder conflicts\n", n)
	fmt.Fprintf(&b, "%-16s %11s %7s %7s %7s %7s\n", "gma", "unperturbed", "min", "median", "p75", "max")
	for _, r := range rows {
		slices.Sort(r.seeded)
		fmt.Fprintf(&b, "%-16s %11d %7.0f %7.0f %7.0f %7.0f\n", r.name, r.unperturbed,
			r.seeded[0], quantile(r.seeded, 0.5), quantile(r.seeded, 0.75), r.seeded[len(r.seeded)-1])
	}
	slices.Sort(cpu)
	fmt.Fprintf(&b, "CPU per corpus pass: unperturbed %.0f ms, median over seeds %.0f ms\n", cpu0, quantile(cpu, 0.5))
	t.Log("\n" + b.String())
}

// quantile interpolates linearly between the order statistics of the
// sorted xs.
func quantile(xs []float64, q float64) float64 {
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[lo]
	}
	return xs[lo] + (xs[lo+1]-xs[lo])*(pos-float64(lo))
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime(t *testing.T) time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		t.Fatal(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
