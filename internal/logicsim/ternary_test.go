package logicsim

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/netlist"
)

func TestTritString(t *testing.T) {
	if F.String() != "0" || T.String() != "1" || X.String() != "X" {
		t.Error("trit strings")
	}
	if Trit(7).String() != "Trit(7)" {
		t.Error("unknown trit string")
	}
}

func TestTernaryTruthTables(t *testing.T) {
	// AND: 0 dominates, OR: 1 dominates, XOR: X poisons.
	andTab := map[[2]Trit]Trit{
		{F, F}: F, {F, T}: F, {F, X}: F,
		{T, F}: F, {T, T}: T, {T, X}: X,
		{X, F}: F, {X, T}: X, {X, X}: X,
	}
	orTab := map[[2]Trit]Trit{
		{F, F}: F, {F, T}: T, {F, X}: X,
		{T, F}: T, {T, T}: T, {T, X}: T,
		{X, F}: X, {X, T}: T, {X, X}: X,
	}
	xorTab := map[[2]Trit]Trit{
		{F, F}: F, {F, T}: T, {F, X}: X,
		{T, F}: T, {T, T}: F, {T, X}: X,
		{X, F}: X, {X, T}: X, {X, X}: X,
	}
	for in, want := range andTab {
		if got := AndT(in[0], in[1]); got != want {
			t.Errorf("AND%v = %v, want %v", in, got, want)
		}
	}
	for in, want := range orTab {
		if got := OrT(in[0], in[1]); got != want {
			t.Errorf("OR%v = %v, want %v", in, got, want)
		}
	}
	for in, want := range xorTab {
		if got := XorT(in[0], in[1]); got != want {
			t.Errorf("XOR%v = %v, want %v", in, got, want)
		}
	}
	if NotT(X) != X || NotT(F) != T || NotT(T) != F {
		t.Error("NOT table")
	}
}

func TestEvalTAllTypes(t *testing.T) {
	cases := []struct {
		typ  netlist.GateType
		in   []Trit
		want Trit
	}{
		{netlist.Buf, []Trit{T}, T},
		{netlist.Not, []Trit{T}, F},
		{netlist.And, []Trit{T, T, T}, T},
		{netlist.And, []Trit{T, F, X}, F},
		{netlist.Nand, []Trit{T, T}, F},
		{netlist.Or, []Trit{F, F, T}, T},
		{netlist.Nor, []Trit{F, F}, T},
		{netlist.Xor, []Trit{T, T, T}, T},
		{netlist.Xnor, []Trit{T, F}, F},
		{netlist.Xnor, []Trit{X, F}, X},
	}
	for _, c := range cases {
		if got := EvalT(c.typ, c.in); got != c.want {
			t.Errorf("EvalT(%v, %v) = %v, want %v", c.typ, c.in, got, c.want)
		}
	}
}

// ternaryRun evaluates the circuit gate by gate in three-valued logic
// for one primary-input assignment (one Trit per input, in input
// order) — the implication walk PODEM runs over EvalT — and returns
// every gate's value by gate ID.
func ternaryRun(t *testing.T, c *netlist.Circuit, inputs []Trit) []Trit {
	t.Helper()
	order, err := c.Order()
	if err != nil {
		t.Fatal(err)
	}
	val := make([]Trit, len(c.Gates))
	for i, id := range c.Inputs {
		val[id] = inputs[i]
	}
	var in []Trit
	for _, id := range order {
		g := &c.Gates[id]
		if g.Type == netlist.Input {
			continue
		}
		in = in[:0]
		for _, f := range g.Fanin {
			in = append(in, val[f])
		}
		val[id] = EvalT(g.Type, in)
	}
	return val
}

func TestTernaryAgreesWithBinary(t *testing.T) {
	// With no X inputs, three-valued evaluation must agree with the
	// reference binary simulator on every gate.
	c, err := netlist.RandomCircuit("r", 10, 200, 8, 13)
	if err != nil {
		t.Fatal(err)
	}
	prop := func(seed uint32) bool {
		in := make([]Trit, len(c.Inputs))
		p := make(Pattern, len(c.Inputs))
		s := seed
		for i := range in {
			s = s*1664525 + 1013904223
			bit := s>>16&1 == 1
			p[i] = bit
			if bit {
				in[i] = T
			} else {
				in[i] = F
			}
		}
		tv := ternaryRun(t, c, in)
		bv := refGates(c, p, nil)
		for id := range c.Gates {
			if tv[id] == X {
				return false // no X can appear with fully assigned inputs
			}
			if (tv[id] == T) != bv[id] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestTernaryXPropagation(t *testing.T) {
	// c17 with all-X inputs: every gate is X. With input 3=0, gates 10
	// and 11 become 1 regardless of other inputs.
	c := netlist.C17()
	vals := ternaryRun(t, c, []Trit{X, X, X, X, X})
	for _, id := range c.Outputs {
		if vals[id] != X {
			t.Errorf("all-X inputs: output %s = %v", c.Gates[id].Name, vals[id])
		}
	}
	// Input order: 1,2,3,6,7. Set 3 = 0.
	vals = ternaryRun(t, c, []Trit{X, X, F, X, X})
	g10, _ := c.GateByName("10")
	g11, _ := c.GateByName("11")
	if vals[g10] != T || vals[g11] != T {
		t.Errorf("NAND with a 0 input must be 1: g10=%v g11=%v", vals[g10], vals[g11])
	}
}

// TestEvalPairMatchesEvalT pins the packed two-machine gate function
// to EvalT: walking the slots in order under random, independent 0/1/X
// inputs per machine must give every gate, in each machine, the value
// the gate-level ternary walk gives it over that machine's inputs.
func TestEvalPairMatchesEvalT(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	lsi, err := netlist.LSIChip(300)
	if err != nil {
		t.Fatal(err)
	}
	circuits := []*netlist.Circuit{netlist.C17(), lsi}
	for seed := int64(1); seed <= 3; seed++ {
		c, err := netlist.RandomCircuit("r", 8, 120, 6, seed)
		if err != nil {
			t.Fatal(err)
		}
		circuits = append(circuits, c)
	}
	for _, tr := range []Trit{F, T, X} {
		for _, b := range []Trit{F, T, X} {
			if p := PairOf(tr, b); p.Good() != tr || p.Bad() != b || p.WithBad(tr).Bad() != tr || p.WithBad(tr).Good() != tr {
				t.Fatalf("PairOf(%v, %v) round trip", tr, b)
			}
		}
	}
	for _, c := range circuits {
		f, err := NewFlat(c)
		if err != nil {
			t.Fatal(err)
		}
		plane := make([]TritPair, f.Slots())
		for trial := 0; trial < 20; trial++ {
			good := make([]Trit, len(c.Inputs))
			bad := make([]Trit, len(c.Inputs))
			for i := range good {
				good[i], bad[i] = Trit(rng.Intn(3)), Trit(rng.Intn(3))
				if trial%2 == 0 {
					bad[i] = good[i] // agreeing machines must stay agreeing
				}
				plane[i] = PairOf(good[i], bad[i])
			}
			wantGood, wantBad := ternaryRun(t, c, good), ternaryRun(t, c, bad)
			for slot := f.NumInputs(); slot < f.Slots(); slot++ {
				plane[slot] = f.EvalPair(slot, plane)
			}
			for slot, v := range plane {
				g := f.GateAt(slot)
				if v.Good() != wantGood[g] || v.Bad() != wantBad[g] {
					t.Fatalf("%s trial %d gate %d: EvalPair (%v, %v), EvalT (%v, %v)",
						c.Name, trial, g, v.Good(), v.Bad(), wantGood[g], wantBad[g])
				}
			}
		}
	}
}
