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

// The shared digit lookup tables, all over opSpace. The scheduler merges
// ready nodes of equal tables into one dispatch.
var (
	tblCarry = buildTable(func(v int) int { return v / Base })
	tblDigit = buildTable(func(v int) int { return v % Base })
	// Partial-product tables over a packed pair v = x + Base·y.
	tblPairLow  = buildTable(func(v int) int { return ((v % Base) * (v / Base)) % Base })
	tblPairHigh = buildTable(func(v int) int { return ((v % Base) * (v / Base)) / Base })
)

// buildTable materializes f over {0..opSpace-1}.
func buildTable(f func(int) int) []int {
	t := make([]int, opSpace)
	for v := range t {
		t[v] = f(v)
	}
	return t
}

// binaryCircuit builds a standalone two-operand circuit over n-digit
// inputs: x's digits then y's.
func binaryCircuit(n int, build func(b *sched.Builder, x, y []sched.Wire) []sched.Wire) (*sched.Circuit, error) {
	b := sched.NewBuilder()
	x := b.Inputs(n)
	y := b.Inputs(n)
	b.Output(build(b, x, y)...)
	return b.Build()
}

// MulCircuit returns a standalone n-digit multiplication circuit: inputs
// are x's digits then y's, outputs the product's digits (mod Base^n).
func MulCircuit(n int) (*sched.Circuit, error) {
	return binaryCircuit(n, BuildMul)
}

// pair packs two digit wires into one message v = x + Base·y ∈
// {0..opSpace-1}, the bivariate-LUT input. Unlike a digit difference,
// the packed value always stays inside the padding-bit range, so lookups
// never hit the negacyclic wraparound.
func pair(b *sched.Builder, x, y sched.Wire) sched.Wire {
	return b.Lin(0, sched.Term{W: x, C: 1}, sched.Term{W: y, C: int32(Base)})
}

// zeroDigit appends an encrypted zero digit (a noiseless constant).
func zeroDigit(b *sched.Builder) sched.Wire {
	return b.Lin(tfhe.EncodePBSMessage(0, opSpace))
}

// BuildAdd appends the ripple-carry addition circuit: per digit one free
// linear sum (digit + digit + carry, inside opSpace) and two LUTs — carry
// extraction and digit reduction. The digit LUTs of different positions
// land on different levels of the carry chain but share one table, so a
// scheduler batches them with whatever else the level holds. Operand
// digits may exceed Base-1 as long as every linear sum stays below
// opSpace (the multiplier's row accumulation relies on this); outputs are
// always reduced digits.
func BuildAdd(b *sched.Builder, x, y []sched.Wire) []sched.Wire {
	n := len(x)
	out := make([]sched.Wire, n)
	carry := sched.Wire(-1)
	for i := 0; i < n; i++ {
		terms := []sched.Term{{W: x[i], C: 1}, {W: y[i], C: 1}}
		if carry >= 0 {
			terms = append(terms, sched.Term{W: carry, C: 1})
		}
		s := b.Lin(0, terms...)
		if i+1 < n {
			carry = b.LUT(s, opSpace, tblCarry)
		}
		out[i] = b.LUT(s, opSpace, tblDigit)
	}
	return out
}

// BuildMul appends the full encrypted multiply x·y mod Base^n. Every
// digit pair is packed into one message and split into low/high partial
// products by two LUTs — all of them independent, so the scheduler's
// first level is n²-wide — then the n partial-product rows reduce
// through a balanced tree of ripple-carry adds. Row digits reach at most
// (Base-1) + (Base²-1)/Base < 2·Base before reduction, which BuildAdd's
// opSpace slack absorbs.
func BuildMul(b *sched.Builder, x, y []sched.Wire) []sched.Wire {
	n := len(x)
	if n == 0 {
		return nil
	}
	rows := make([][]sched.Wire, 0, n)
	for j := 0; j < n; j++ {
		// lows[i] = (x_i·y_j) mod Base at position i+j; highs[i] = the
		// carry digit at position i+j+1. Positions ≥ n are truncated.
		lows := make([]sched.Wire, 0, n-j)
		highs := make([]sched.Wire, 0, n-j)
		for i := 0; i+j < n; i++ {
			p := pair(b, x[i], y[j])
			lows = append(lows, b.LUT(p, opSpace, tblPairLow))
			if i+j+1 < n {
				highs = append(highs, b.LUT(p, opSpace, tblPairHigh))
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
				row[pos] = zeroDigit(b)
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
			next = append(next, BuildAdd(b, rows[k], rows[k+1]))
		}
		if len(rows)%2 == 1 {
			next = append(next, rows[len(rows)-1])
		}
		rows = next
	}
	return rows[0]
}
