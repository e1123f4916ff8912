package main

import "testing"

// TestOptimalNote: a proven optimum names the budget its refutation
// covers, except a 0-cycle optimum, which has no smaller budget.
func TestOptimalNote(t *testing.T) {
	for cycles, want := range map[int]string{
		0: " (optimal)",
		1: " (optimal: 0-cycle budget refuted)",
		5: " (optimal: 4-cycle budget refuted)",
	} {
		if got := optimalNote(cycles); got != want {
			t.Errorf("optimalNote(%d) = %q, want %q", cycles, got, want)
		}
	}
}
