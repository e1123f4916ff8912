package egraph

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// TestRowSetAgainstMap adds random rows of several widths, the empty row
// included, and checks membership, insertion order and the reported
// novelty against a map keyed on the rows' renderings. A second pass
// after Reset checks that reused buffers keep nothing.
func TestRowSetAgainstMap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var s RowSet
	for _, width := range []int{0, 1, 2, 3, 0, 5, 2} {
		s.Reset(width)
		seen := map[string]bool{}
		var order [][]ClassID
		for i := 0; i < 3000; i++ {
			row := make([]ClassID, width)
			for j := range row {
				row[j] = ClassID(rng.Intn(40))
			}
			key := fmt.Sprint(row)
			if got := s.Has(row); got != seen[key] {
				t.Fatalf("width %d: Has(%v) = %v before adding", width, row, got)
			}
			if added := s.Add(row); added == seen[key] {
				t.Fatalf("width %d: Add(%v) = %v, already present %v", width, row, added, seen[key])
			}
			if !seen[key] {
				seen[key] = true
				order = append(order, row)
			}
			if !s.Has(row) {
				t.Fatalf("width %d: Has(%v) = false after adding", width, row)
			}
		}
		if s.Len() != len(order) {
			t.Fatalf("width %d: Len = %d, want %d", width, s.Len(), len(order))
		}
		for i, row := range order {
			if !slices.Equal(s.Row(i), row) {
				t.Fatalf("width %d: Row(%d) = %v, want %v", width, i, s.Row(i), row)
			}
		}
	}
}

// TestRowSetLookupAllocs: once a row is in the set, looking it up or
// adding it again allocates nothing, even when the set is full enough
// that its next new member grows it (8 members in 16 slots).
func TestRowSetLookupAllocs(t *testing.T) {
	var s RowSet
	s.Reset(3)
	for i := 0; i < 8; i++ {
		s.Add([]ClassID{ClassID(i), ClassID(i * 7), 3})
	}
	row := []ClassID{5, 35, 3}
	if n := testing.AllocsPerRun(100, func() {
		if !s.Has(row) || s.Add(row) {
			t.Fatal("row not found")
		}
	}); n != 0 {
		t.Errorf("a lookup and a duplicate add allocate %.1f times, want 0", n)
	}
}
