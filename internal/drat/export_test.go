package drat

import "testing"

// Exports for the external test package, which builds golden-corpus
// certificates through internal/core and so cannot be an internal test
// of this package (core imports drat).
var (
	RefCheck = refCheck
	Verdict  = verdict
)

func ReferenceCases(t *testing.T) []RefCase { return referenceCases(t) }
