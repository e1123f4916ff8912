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

// Binary DRAT (the drat-trim/CaDiCaL wire format): each step is a tag
// byte 'a' (0x61, addition) or 'd' (0x64, deletion) followed by the
// clause's literals and a terminating zero. A literal l maps to the
// unsigned value 2|l| (positive) or 2|l|+1 (negative), written as a
// base-128 varint, low bits first, high bit marking continuation.

func putVarint(bw *bufio.Writer, u uint64) error {
	for u >= 0x80 {
		if err := bw.WriteByte(byte(u&0x7f | 0x80)); err != nil {
			return err
		}
		u >>= 7
	}
	return bw.WriteByte(byte(u))
}

// WriteBinary renders steps in the binary DRAT format.
func WriteBinary(w io.Writer, steps []Step) error {
	bw := bufio.NewWriter(w)
	for _, st := range steps {
		tag := byte('a')
		if st.Del {
			tag = 'd'
		}
		if err := bw.WriteByte(tag); err != nil {
			return err
		}
		for _, l := range st.Lits {
			u := uint64(2 * l)
			if l < 0 {
				u = uint64(-2*l) + 1
			}
			if err := putVarint(bw, u); err != nil {
				return err
			}
		}
		if err := bw.WriteByte(0); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// maxVar bounds accepted literals so hostile varints cannot allocate
// unbounded memory downstream; DIMACS tools cap variables at 2^31-1 and
// real certificates stay far below it.
const maxVar = 1<<31 - 1

// ParseBinary reads a binary DRAT proof.
func ParseBinary(r io.Reader) ([]Step, error) {
	br := bufio.NewReader(r)
	var steps []Step
	for {
		tag, err := br.ReadByte()
		if err == io.EOF {
			return steps, nil
		}
		if err != nil {
			return nil, err
		}
		st := Step{}
		switch tag {
		case 'a':
		case 'd':
			st.Del = true
		default:
			return nil, fmt.Errorf("drat: step %d: bad tag 0x%02x (want 'a' or 'd')", len(steps), tag)
		}
		for {
			var u uint64
			shift := 0
			for {
				b, err := br.ReadByte()
				if err != nil {
					if err == io.EOF {
						err = io.ErrUnexpectedEOF
					}
					return nil, fmt.Errorf("drat: step %d: truncated literal: %w", len(steps), err)
				}
				if shift >= 63 {
					return nil, fmt.Errorf("drat: step %d: literal varint overflow", len(steps))
				}
				u |= uint64(b&0x7f) << shift
				shift += 7
				if b&0x80 == 0 {
					break
				}
			}
			if u == 0 {
				break
			}
			if u/2 > maxVar {
				return nil, fmt.Errorf("drat: step %d: variable %d out of range", len(steps), u/2)
			}
			if u/2 == 0 {
				// u=1 would decode to "-0": variable 0 does not exist and
				// the zero literal is reserved for the terminator.
				return nil, fmt.Errorf("drat: step %d: literal encodes variable 0", len(steps))
			}
			l := int(u / 2)
			if u&1 == 1 {
				l = -l
			}
			st.Lits = append(st.Lits, l)
		}
		steps = append(steps, st)
	}
}

// Parse auto-detects the format: a proof whose bytes all belong to the
// textual alphabet (digits, '-', 'd', 'c' comments, whitespace) parses
// as text, anything else as binary — the same heuristic drat-trim uses.
// Ambiguous inputs exist in principle; callers that know the format
// should call ParseText or ParseBinary directly.
func Parse(data []byte) ([]Step, error) {
	if looksTextual(data) {
		return ParseText(strings.NewReader(string(data)))
	}
	return ParseBinary(strings.NewReader(string(data)))
}

func looksTextual(data []byte) bool {
	for i := 0; i < len(data); i++ {
		switch b := data[i]; {
		case b >= '0' && b <= '9':
		case b == '-' || b == ' ' || b == '\t' || b == '\n' || b == '\r':
		case b == 'd':
		case b == 'c':
			// Comment line: consume to newline.
			for i < len(data) && data[i] != '\n' {
				i++
			}
		default:
			return false
		}
	}
	return true
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
