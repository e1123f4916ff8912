package drat

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// WriteText renders steps in the textual DRAT format drat-trim reads:
// one step per line, literals space-separated and 0-terminated, deletion
// steps prefixed with "d".
func WriteText(w io.Writer, steps []Step) error {
	bw := bufio.NewWriter(w)
	for _, st := range steps {
		if st.Del {
			if _, err := bw.WriteString("d "); err != nil {
				return err
			}
		}
		for _, l := range st.Lits {
			if _, err := fmt.Fprintf(bw, "%d ", l); err != nil {
				return err
			}
		}
		if _, err := bw.WriteString("0\n"); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ParseText reads a textual DRAT proof. Comment lines starting with "c"
// and blank lines are skipped; each remaining line is "d"-prefixed for a
// deletion and holds 0-terminated literals. Literals may continue past a
// line's 0 terminator onto the same line only (one step per line, as
// drat-trim emits); a line without a terminator is an error.
func ParseText(r io.Reader) ([]Step, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var steps []Step
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "c") {
			continue
		}
		st := Step{}
		if strings.HasPrefix(line, "d") {
			if len(line) > 1 && line[1] != ' ' && line[1] != '\t' {
				return nil, fmt.Errorf("drat: line %d: bad step %q", lineNo, line)
			}
			st.Del = true
			line = strings.TrimSpace(line[1:])
		}
		terminated := false
		for _, f := range strings.Fields(line) {
			v, err := strconv.Atoi(f)
			if err != nil {
				return nil, fmt.Errorf("drat: line %d: bad literal %q", lineNo, f)
			}
			if v == 0 {
				terminated = true
				break
			}
			st.Lits = append(st.Lits, v)
		}
		if !terminated {
			return nil, fmt.Errorf("drat: line %d: missing 0 terminator", lineNo)
		}
		steps = append(steps, st)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return steps, nil
}

// WriteDIMACS writes the certificate's premises in DIMACS CNF: the
// original clause database, including unit clauses and tautologies
// exactly as the constraint generator produced them, followed by the
// Assumed units, so the pair (WriteDIMACS, WriteText of Proof) can be
// fed to an external drat-trim for cross-checking.
func (c *Certificate) WriteDIMACS(w io.Writer, comments ...string) error {
	bw := bufio.NewWriter(w)
	for _, cm := range comments {
		if _, err := fmt.Fprintf(bw, "c %s\n", cm); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(bw, "p cnf %d %d\n", c.Vars, len(c.Formula)+len(c.Assumed)); err != nil {
		return err
	}
	for _, cl := range c.Formula {
		for _, l := range cl {
			if _, err := fmt.Fprintf(bw, "%d ", l); err != nil {
				return err
			}
		}
		if _, err := bw.WriteString("0\n"); err != nil {
			return err
		}
	}
	for _, l := range c.Assumed {
		if _, err := fmt.Fprintf(bw, "%d 0\n", l); err != nil {
			return err
		}
	}
	return bw.Flush()
}
