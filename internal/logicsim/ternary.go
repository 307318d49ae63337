package logicsim

import (
	"fmt"

	"repro/internal/netlist"
)

// Trit is a three-valued logic level: 0, 1, or X (unknown).
type Trit uint8

// Ternary logic values.
const (
	F Trit = iota // logic 0
	T             // logic 1
	X             // unknown
)

// String renders the trit.
func (t Trit) String() string {
	switch t {
	case F:
		return "0"
	case T:
		return "1"
	case X:
		return "X"
	default:
		return fmt.Sprintf("Trit(%d)", uint8(t))
	}
}

// NotT returns three-valued NOT.
func NotT(a Trit) Trit {
	switch a {
	case F:
		return T
	case T:
		return F
	default:
		return X
	}
}

// AndT returns three-valued AND: 0 dominates X.
func AndT(a, b Trit) Trit {
	if a == F || b == F {
		return F
	}
	if a == T && b == T {
		return T
	}
	return X
}

// OrT returns three-valued OR: 1 dominates X.
func OrT(a, b Trit) Trit {
	if a == T || b == T {
		return T
	}
	if a == F && b == F {
		return F
	}
	return X
}

// XorT returns three-valued XOR: any X poisons the result.
func XorT(a, b Trit) Trit {
	if a == X || b == X {
		return X
	}
	if a != b {
		return T
	}
	return F
}

// EvalT evaluates a gate in three-valued logic over its fanin values.
func EvalT(t netlist.GateType, in []Trit) Trit {
	switch t {
	case netlist.Buf:
		return in[0]
	case netlist.Not:
		return NotT(in[0])
	case netlist.And, netlist.Nand:
		v := in[0]
		for _, x := range in[1:] {
			v = AndT(v, x)
		}
		if t == netlist.Nand {
			return NotT(v)
		}
		return v
	case netlist.Or, netlist.Nor:
		v := in[0]
		for _, x := range in[1:] {
			v = OrT(v, x)
		}
		if t == netlist.Nor {
			return NotT(v)
		}
		return v
	case netlist.Xor, netlist.Xnor:
		v := in[0]
		for _, x := range in[1:] {
			v = XorT(v, x)
		}
		if t == netlist.Xnor {
			return NotT(v)
		}
		return v
	default:
		panic(fmt.Sprintf("logicsim: cannot evaluate gate type %v", t))
	}
}
