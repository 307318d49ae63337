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

// TritPair is one line's value in two machines at once — a good and a
// faulty copy of the circuit, each three-valued — packed as the set of
// values the line may take in each: bit 0 "good may be 0", bit 1 "good
// may be 1", bit 2 "faulty may be 0", bit 3 "faulty may be 1". X sets
// both bits of its machine. In this form every gate function is a few
// bitwise folds that evaluate both machines in one pass, and a pair
// whose machines agree stays agreeing through any gate whose inputs
// agree.
type TritPair uint8

// PairOf packs a good and a faulty value.
func PairOf(good, bad Trit) TritPair {
	return TritPair(good+1) | TritPair(bad+1)<<2
}

// Good returns the good machine's value.
func (p TritPair) Good() Trit { return Trit(p&3) - 1 }

// Bad returns the faulty machine's value.
func (p TritPair) Bad() Trit { return Trit(p>>2) - 1 }

// WithBad returns p with the faulty machine's value replaced by bad.
func (p TritPair) WithBad(bad Trit) TritPair { return p&3 | TritPair(bad+1)<<2 }

// Pair bit masks: the "may be 0" and "may be 1" bits of both machines.
const (
	pairZeros TritPair = 0b0101
	pairOnes  TritPair = 0b1010
)

// notPair swaps each machine's may-be-0 and may-be-1 bits.
func notPair(v TritPair) TritPair {
	return (v&pairZeros)<<1 | (v&pairOnes)>>1
}

// andPair is two-input AND: may be 0 if either input may be 0, may be
// 1 if both may be 1.
func andPair(a, b TritPair) TritPair {
	return (a|b)&pairZeros | a&b&pairOnes
}

// orPair is two-input OR, the dual of andPair.
func orPair(a, b TritPair) TritPair {
	return a&b&pairZeros | (a|b)&pairOnes
}

// xorPair is two-input XOR: may be 0 if the inputs may be equal, may
// be 1 if they may differ.
func xorPair(a, b TritPair) TritPair {
	a0, a1 := a&pairZeros, a>>1&pairZeros
	b0, b1 := b&pairZeros, b>>1&pairZeros
	return a0&b0 | a1&b1 | (a0&b1|a1&b0)<<1
}

// EvalPair evaluates one slot of the flat circuit in both machines of a
// slot-indexed TritPair plane: per machine, exactly EvalT of the gate
// over that machine's fanin values. An input slot returns its own plane
// value.
func (f *Flat) EvalPair(slot int, plane []TritPair) TritPair {
	lo, hi := f.faninAt[slot], f.faninAt[slot+1]
	op := f.op[slot]
	switch op {
	case opInput:
		return plane[slot]
	case opBuf:
		return plane[f.fanin[lo]]
	case opNot:
		return notPair(plane[f.fanin[lo]])
	case opAnd2:
		return andPair(plane[f.fanin[lo]], plane[f.fanin[lo+1]])
	case opNand2:
		return notPair(andPair(plane[f.fanin[lo]], plane[f.fanin[lo+1]]))
	case opOr2:
		return orPair(plane[f.fanin[lo]], plane[f.fanin[lo+1]])
	case opNor2:
		return notPair(orPair(plane[f.fanin[lo]], plane[f.fanin[lo+1]]))
	case opXor2:
		return xorPair(plane[f.fanin[lo]], plane[f.fanin[lo+1]])
	case opXnor2:
		return notPair(xorPair(plane[f.fanin[lo]], plane[f.fanin[lo+1]]))
	}
	fanin := f.fanin[lo:hi]
	v := plane[fanin[0]]
	switch op {
	case opAndN, opNandN:
		for _, fs := range fanin[1:] {
			v = andPair(v, plane[fs])
		}
	case opOrN, opNorN:
		for _, fs := range fanin[1:] {
			v = orPair(v, plane[fs])
		}
	default: // opXorN, opXnorN
		for _, fs := range fanin[1:] {
			v = xorPair(v, plane[fs])
		}
	}
	if op == opNandN || op == opNorN || op == opXnorN {
		v = notPair(v)
	}
	return v
}
