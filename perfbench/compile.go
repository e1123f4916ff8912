package main

import (
	"encoding/json"
	"fmt"
	"os"
	"time"

	"repro"
	"repro/internal/axioms"
	"repro/internal/programs"
)

// goldenPath is the repository's pinned end-to-end answer for every
// corpus GMA (cycles and proven optimality), relative to the checkout.
const goldenPath = "internal/core/testdata/golden.json"

// ref is the expected answer for one GMA.
type ref struct {
	Cycles  int  `json:"cycles"`
	Optimal bool `json:"optimal"`
}

// extraRefs pins the corpus GMAs golden.json does not cover: popcount and
// misschase, at the optimum every search strategy agrees on.
var extraRefs = map[string]ref{
	"popcount":       {17, true},
	"misschase_loop": {12, true},
}

// loadRefs builds the reference table keyed by GMA name: golden.json,
// the extra corpus pins, the kernel families and the fresh-miss family.
func loadRefs() (map[string]ref, error) {
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		return nil, err
	}
	var golden []struct {
		GMAs []struct {
			Name string `json:"name"`
			ref
		} `json:"gmas"`
	}
	if err := json.Unmarshal(data, &golden); err != nil {
		return nil, fmt.Errorf("parse %s: %w", goldenPath, err)
	}
	refs := map[string]ref{}
	for _, p := range golden {
		for _, g := range p.GMAs {
			refs[g.Name] = g.ref
		}
	}
	for name, r := range extraRefs {
		refs[name] = r
	}
	for name, c := range kernelCycles {
		refs[name] = ref{c, true}
	}
	refs["fresh"] = ref{freshCycles, true}
	return refs, nil
}

// checkAnswer compares one answered GMA with its reference.
func checkAnswer(refs map[string]ref, name string, cycles int, optimal bool) error {
	r, ok := refs[name]
	if !ok {
		return fmt.Errorf("%s: no reference answer", name)
	}
	if cycles != r.Cycles || optimal != r.Optimal {
		return fmt.Errorf("%s: got cycles=%d optimal=%v, reference cycles=%d optimal=%v",
			name, cycles, optimal, r.Cycles, r.Optimal)
	}
	return nil
}

// verifyTrials is how many seeded random inputs each emitted schedule is
// simulated on against the GMA's reference semantics.
const verifyTrials = 64

// checkCompiled checks every GMA of a compile: reference cycles and
// optimality, certification when asked for, and agreement of the emitted
// schedule with the GMA's semantics on seeded inputs in the independent
// simulator (sim.Verify).
func checkCompiled(refs map[string]ref, res *repro.Result, certify bool, seed int64) error {
	for _, proc := range res.Procs {
		for _, g := range proc.GMAs {
			if err := checkAnswer(refs, g.Name, g.Cycles, g.OptimalProven); err != nil {
				return err
			}
			if certify && g.OptimalProven && !g.Certified {
				return fmt.Errorf("%s: optimality proven but not certified", g.Name)
			}
			if err := g.Verify(verifyTrials, seed); err != nil {
				return fmt.Errorf("%s: %w", g.Name, err)
			}
		}
	}
	return nil
}

// answers sums what a pass emitted: the quality metrics.
type answers struct {
	gmas, cycles, instrs, optimal, certified int
}

func (a *answers) add(cycles, instrs int, optimal, certified bool) {
	a.gmas++
	a.cycles += cycles
	a.instrs += instrs
	if optimal {
		a.optimal++
	}
	if certified {
		a.certified++
	}
}

// compileLoad is a compile workload ready to measure: the generated
// programs, the options they compile with, and the reference answers.
type compileLoad struct {
	progs []program
	opts  repro.Options
	refs  map[string]ref
}

// setUpCompile loads the references and axioms, generates the inputs and
// warms the compiler, so the timed passes measure steady-state compiles.
// The warm-up compiles take both probe paths: quickstart's tiny goals run
// from-scratch probes, byteswap4 runs the incremental engine.
func setUpCompile(draw func(int64) []program, opts repro.Options, seed int64) (compileLoad, error) {
	refs, err := loadRefs()
	if err != nil {
		return compileLoad{}, err
	}
	if _, err := axioms.Builtin(); err != nil {
		return compileLoad{}, err
	}
	for _, src := range []string{programs.Quickstart, programs.Byteswap4} {
		if _, err := repro.Compile(src, opts); err != nil {
			return compileLoad{}, fmt.Errorf("warm-up compile: %w", err)
		}
	}
	return compileLoad{progs: draw(seed), opts: opts, refs: refs}, nil
}

func runKernels(cfg config, rep *report) error {
	return runCompile(cfg, rep, kernelDraw, repro.Options{})
}

func runDeep(cfg config, rep *report) error {
	return runCompile(cfg, rep, deepDraw, repro.Options{Certify: true})
}

// setUpRuns is how many times a compile run repeats its set-up for
// setup_s; one set-up takes about 60 ms.
const setUpRuns = 9

// runCompile measures a compile workload: whole passes over the
// generated programs, each compiled cold through repro.Compile, until
// the run's time is up. Each compile is timed in process CPU time (and,
// for the notes, wall time). Latencies are summarized per pass (the
// pass's median and slowest compile) and then over passes by the median,
// so a statistic never lands between two programs' latency clusters.
func runCompile(cfg config, rep *report, draw func(int64) []program, opts repro.Options) error {
	load, setup, err := setUp(setUpRuns, func() (compileLoad, error) {
		return setUpCompile(draw, opts, cfg.seed)
	}, func(compileLoad) {})
	if err != nil {
		return err
	}
	var passes, walls, p50s, slowest []float64
	var first answers
	deadline := time.Now().Add(cfg.dur)
	for pass := 0; pass == 0 || time.Now().Before(deadline); pass++ {
		var cpu, wall time.Duration
		var lat []float64
		var got answers
		for _, p := range load.progs {
			c0, t0 := cpuTime(), time.Now()
			res, err := repro.Compile(p.src, load.opts)
			d, w := cpuTime()-c0, time.Since(t0)
			cpu += d
			wall += w
			lat = append(lat, ms(d))
			if err == nil {
				err = checkCompiled(load.refs, res, opts.Certify, cfg.seed+int64(pass))
			}
			if err != nil {
				rep.op(fmt.Errorf("%s: %w", p.name, err))
				continue
			}
			rep.op(nil)
			for _, proc := range res.Procs {
				for _, g := range proc.GMAs {
					got.add(g.Cycles, g.Instructions, g.OptimalProven, g.Certified)
				}
			}
		}
		passes = append(passes, cpu.Seconds())
		walls = append(walls, wall.Seconds())
		p50s = append(p50s, median(lat))
		slowest = append(slowest, quantile(lat, 1))
		if pass == 0 {
			first = got
		} else if got != first {
			rep.op(fmt.Errorf("pass %d answered %+v, pass 0 answered %+v", pass, got, first))
		}
	}
	rep.set("setup_s", "s", setup)
	rep.set("compile_s", "s", median(passes))
	rep.set("req_per_cpu_s", "1/s", float64(len(load.progs))/median(passes))
	rep.set("req_cpu_ms_p50", "ms", median(p50s))
	rep.set("req_cpu_ms_tail", "ms", median(slowest))
	rep.set("cycles_sum", "cycles", float64(first.cycles))
	rep.set("instrs_sum", "instrs", float64(first.instrs))
	rep.set("optimal_share", "share", share(first.optimal, first.gmas))
	rep.set("peak_rss_mb", "MB", peakRSSMB())
	rep.note("%d programs (%d GMAs) per pass, %d passes; set-up is the median of %d", len(load.progs), first.gmas, len(passes), setUpRuns)
	rep.note("pass CPU s: min %.4g, quartiles %.4g %.4g %.4g, max %.4g",
		quantile(passes, 0), quantile(passes, 0.25), median(passes), quantile(passes, 0.75), quantile(passes, 1))
	rep.note("pass wall s: median %.4g (wall time also counts time the host took the CPUs away)", median(walls))
	if opts.Certify {
		rep.note("certified_share %.6g share (%d of %d GMAs)", share(first.certified, first.gmas), first.certified, first.gmas)
	}
	return nil
}

func share(n, of int) float64 {
	if of == 0 {
		return 0
	}
	return float64(n) / float64(of)
}
