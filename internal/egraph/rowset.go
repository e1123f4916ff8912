package egraph

import (
	"math/bits"
	"slices"
)

// RowSet is an insertion-ordered set of rows: class tuples of one fixed
// width. The members lie back to back in one flat buffer, and an
// open-addressing table of member numbers finds a row by hashing it
// once, so a lookup or a duplicate insert allocates nothing. Width 0 is
// allowed; its one possible member is the empty row.
type RowSet struct {
	width int
	n     int       // members
	rows  []ClassID // member i is rows[i*width : (i+1)*width]
	table []int32   // member number + 1 per slot, 0 if empty; len is 0 or a power of two
	shift uint      // 64 - log2(len(table)): a hash's top bits pick the slot
}

// Reset empties the set and sets its row width, keeping its buffers.
func (s *RowSet) Reset(width int) {
	s.width, s.n, s.rows = width, 0, s.rows[:0]
	clear(s.table)
}

// Len returns the number of members.
func (s *RowSet) Len() int { return s.n }

// Row returns member i, in insertion order. The slice aliases the set's
// buffer: it is valid until the next Add or Reset.
func (s *RowSet) Row(i int) []ClassID {
	return s.rows[i*s.width : (i+1)*s.width : (i+1)*s.width]
}

// Has reports whether row is a member.
func (s *RowSet) Has(row []ClassID) bool {
	if s.n == 0 {
		return false
	}
	_, found := s.find(row)
	return found
}

// Add inserts a copy of row and reports whether it was not yet a member.
// Only a new member can grow the set.
func (s *RowSet) Add(row []ClassID) bool {
	if len(s.table) == 0 {
		s.grow()
	}
	slot, found := s.find(row)
	if found {
		return false
	}
	if 2*(s.n+1) > len(s.table) {
		s.grow()
		slot, _ = s.find(row)
	}
	s.rows = append(s.rows, row...)
	s.n++
	s.table[slot] = int32(s.n)
	return true
}

// find returns the slot that holds row, or else the empty slot where row
// belongs (linear probing from the row's hash).
func (s *RowSet) find(row []ClassID) (slot int, found bool) {
	var h uint64
	for _, c := range row {
		h = (h ^ uint64(uint32(c))) * 0x9e3779b97f4a7c15
	}
	mask := len(s.table) - 1
	for i := int(h >> s.shift); ; i = (i + 1) & mask {
		m := int(s.table[i])
		if m == 0 {
			return i, false
		}
		if slices.Equal(s.Row(m-1), row) {
			return i, true
		}
	}
}

// grow doubles the table (16 slots at first), which Add keeps at most
// half full, and re-slots every member.
func (s *RowSet) grow() {
	size := max(16, 2*len(s.table))
	s.table = make([]int32, size)
	s.shift = uint(64 - bits.TrailingZeros(uint(size)))
	for m := 0; m < s.n; m++ {
		slot, _ := s.find(s.Row(m))
		s.table[slot] = int32(m + 1)
	}
}
