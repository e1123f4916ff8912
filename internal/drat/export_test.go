package drat

// Exports for the external test package, which checks proofs against
// the RUP reference in internal/drat/dratref and builds golden-corpus
// certificates through internal/core, so it cannot be an internal test
// of this package (dratref and core import drat).
var (
	CloneSteps     = cloneSteps
	Corruptions    = corruptions
	DecodeInstance = decodeInstance
	HintedSeed     = hintedSeed
	Refutation     = refutation
	SolverProofs   = solverProofs
	StepsEqual     = stepsEqual
)
