package intops

import (
	"repro/internal/sched"
	"repro/internal/tfhe"
)

// Circuit constructors: every integer operation is expressed as a sched
// DAG over digit wires, which sched.RunSequential and a sched.Runner run
// bitwise identically. The builders assume equal-length digit slices: a
// standalone circuit takes both operands at one width, and running it on
// any other number of input digits is refused.

// table materializes f over {0..Space-1}; the scheduler merges ready
// nodes of equal tables, whichever call built them.
func (r Radix) table(f func(v int) int) []int {
	t := make([]int, r.Space())
	for v := range t {
		t[v] = f(v)
	}
	return t
}

// binaryCircuit builds a standalone two-operand circuit over n-digit
// inputs: x's digits then y's.
func binaryCircuit(n int, build func(b *sched.Builder, x, y []sched.Wire) []sched.Wire) (*sched.Circuit, error) {
	b := sched.NewBuilder()
	x, y := b.Inputs(n), b.Inputs(n)
	b.Output(build(b, x, y)...)
	return b.Build()
}

// MulCircuit returns a standalone n-digit multiplication circuit: inputs
// are x's digits then y's, outputs the product's digits (mod Base^n).
func (r Radix) MulCircuit(n int) (*sched.Circuit, error) {
	return binaryCircuit(n, r.BuildMul)
}

// pair packs two digit wires into one message v = x + Base·y ∈
// {0..Base²-1}, the bivariate-LUT input. Unlike a digit difference,
// the packed value always stays inside the padding-bit range, so lookups
// never hit the negacyclic wraparound.
func (r Radix) pair(b *sched.Builder, x, y sched.Wire) sched.Wire {
	return b.Lin(0, sched.Term{W: x, C: 1}, sched.Term{W: y, C: int32(r.base)})
}

// zeroDigit appends an encrypted zero digit (a noiseless constant).
func (r Radix) zeroDigit(b *sched.Builder) sched.Wire {
	return b.Lin(tfhe.EncodePBSMessage(0, r.Space()))
}

// BuildAdd appends the ripple-carry addition circuit: per digit one free
// linear sum (digit + digit + carry, inside Space) and two LUTs — carry
// extraction and digit reduction. The digit LUTs of different positions
// land on different levels of the carry chain but share one table, so a
// scheduler batches them with whatever else the level holds. Operand
// digits may exceed Base-1 as long as every linear sum stays below
// Space (the multiplier's row accumulation relies on this); outputs are
// always reduced digits.
func (r Radix) BuildAdd(b *sched.Builder, x, y []sched.Wire) []sched.Wire {
	n, space := len(x), r.Space()
	tblCarry := r.table(func(v int) int { return v / r.base })
	tblDigit := r.table(func(v int) int { return v % r.base })
	out := make([]sched.Wire, n)
	carry := sched.Wire(-1)
	for i := 0; i < n; i++ {
		terms := []sched.Term{{W: x[i], C: 1}, {W: y[i], C: 1}}
		if carry >= 0 {
			terms = append(terms, sched.Term{W: carry, C: 1})
		}
		s := b.Lin(0, terms...)
		if i+1 < n {
			carry = b.LUT(s, space, tblCarry)
		}
		out[i] = b.LUT(s, space, tblDigit)
	}
	return out
}

// BuildMul appends the full encrypted multiply x·y mod Base^n. Every
// digit pair is packed into one message and split into low/high partial
// products by two LUTs — all of them independent, so all are ready to
// the scheduler at once — then the n partial-product rows reduce
// through a balanced tree of ripple-carry adds. Row digits reach at most
// (Base-1) + (Base-1)²/Base before reduction, which Space absorbs. At
// base 2 a digit product's high half is always 0: no lookup builds it.
func (r Radix) BuildMul(b *sched.Builder, x, y []sched.Wire) []sched.Wire {
	n := len(x)
	if n == 0 {
		return nil
	}
	// Partial-product tables over a packed pair v = x + Base·y.
	base, space := r.base, r.Space()
	tblPairLow := r.table(func(v int) int { return (v % base) * (v / base) % base })
	tblPairHigh := r.table(func(v int) int { return (v % base) * (v / base) / base })
	withHighs := (base-1)*(base-1) >= base
	rows := make([][]sched.Wire, 0, n)
	for j := 0; j < n; j++ {
		// lows[i] = (x_i·y_j) mod Base at position i+j; highs[i] = the
		// carry digit at position i+j+1. Positions ≥ n are truncated.
		lows := make([]sched.Wire, 0, n-j)
		highs := make([]sched.Wire, 0, n-j)
		for i := 0; i+j < n; i++ {
			p := r.pair(b, x[i], y[j])
			lows = append(lows, b.LUT(p, space, tblPairLow))
			if withHighs && i+j+1 < n {
				highs = append(highs, b.LUT(p, space, tblPairHigh))
			}
		}
		row := make([]sched.Wire, n)
		for pos := 0; pos < n; pos++ {
			var terms []sched.Term
			if li := pos - j; li >= 0 && li < len(lows) {
				terms = append(terms, sched.Term{W: lows[li], C: 1})
			}
			if hi := pos - j - 1; hi >= 0 && hi < len(highs) {
				terms = append(terms, sched.Term{W: highs[hi], C: 1})
			}
			switch len(terms) {
			case 0:
				row[pos] = r.zeroDigit(b)
			case 1:
				row[pos] = terms[0].W
			default:
				row[pos] = b.Lin(0, terms...)
			}
		}
		rows = append(rows, row)
	}
	// Balanced reduction tree: independent adds share levels, so the
	// scheduler overlaps their carry chains.
	for len(rows) > 1 {
		next := make([][]sched.Wire, 0, (len(rows)+1)/2)
		for k := 0; k+1 < len(rows); k += 2 {
			next = append(next, r.BuildAdd(b, rows[k], rows[k+1]))
		}
		if len(rows)%2 == 1 {
			next = append(next, rows[len(rows)-1])
		}
		rows = next
	}
	return rows[0]
}
