package compilecache

import (
	"testing"

	"repro/internal/flight"
	"repro/internal/lang"
	"repro/internal/programs"
)

// FuzzKey fuzzes key canonicalization over (source, config byte) pairs:
// for every program the parser accepts, the key must be deterministic,
// shaped as a 64-hex digest, invariant under alpha-renaming of the
// program's variables, and sensitive to the result-shaping config bits.
// A violation in any direction is a cache-correctness bug: instability
// or rename-variance loses hits, config-insensitivity serves wrong
// results. Seed corpus in testdata/fuzz/FuzzKey.
func FuzzKey(f *testing.F) {
	f.Add(programs.Quickstart, byte(0))
	f.Add(programs.Byteswap4, byte(1))
	f.Add(programs.SumLoop, byte(2))
	f.Add(programs.Checksum, byte(7))
	f.Add(`(\procdecl t ((a long)) long (:= (\res (+ a 1))))`, byte(3))
	f.Fuzz(func(t *testing.T, src string, cfgBits byte) {
		prog, err := lang.Parse(src)
		if err != nil {
			return // invalid programs are the parser's concern, not the key's
		}
		cfg := KeyConfig{
			AxiomVersion:      "fuzz-ax",
			BuildVersion:      "fuzz-build",
			DisableAtMostOnce: cfgBits&1 != 0,
			Certify:           cfgBits&2 != 0,
			MaxCycles:         int(cfgBits>>4) + 1,
		}
		for _, p := range prog.Procs {
			for _, g := range p.GMAs {
				key := Key(g, cfg)
				if !validKey(key) {
					t.Fatalf("key %q is not 64 lowercase hex digits", key)
				}
				if key != Key(g, cfg) {
					t.Fatal("key is not deterministic")
				}
				// Alpha-renaming every name must not move the key, and the
				// canonical rendering itself must be rename-invariant.
				renamed := alphaRename(g, func(s string) string { return "fz_" + s })
				if rk := Key(renamed, cfg); rk != key {
					t.Fatalf("alpha-rename changed key: %s != %s", rk, key)
				}
				text, vars := flight.Canonical(g)
				rtext, rvars := flight.Canonical(renamed)
				if text != rtext {
					t.Fatalf("canonical text differs under alpha-rename:\n%s\nvs\n%s", text, rtext)
				}
				// The variable correspondence the schedule remap relies on:
				// same length, positionally renamed.
				if len(vars) != len(rvars) {
					t.Fatalf("variable order length differs: %v vs %v", vars, rvars)
				}
				for i := range vars {
					if rvars[i] != "fz_"+vars[i] {
						t.Fatalf("variable order not positional: %v vs %v", vars, rvars)
					}
				}
				// Flipping a result-shaping bit must move the key.
				flipped := cfg
				flipped.Certify = !flipped.Certify
				if Key(g, flipped) == key {
					t.Fatal("flipping Certify did not change the key")
				}
			}
		}
	})
}
