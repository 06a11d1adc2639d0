// Symbolic interval analysis of loop-carried address arithmetic.
//
// The extended operand span the overlap and initialization checks reason
// about is computed in machine-width arithmetic (extend): a stride
// times a trip count can overflow int64, and a base address plus an extent
// can wrap past 2^64. A descriptor whose arithmetic wraps presents a small,
// plausible-looking span to the verifier while the hardware loop nest it
// describes walks addresses far outside it — the same provenance-stripping
// bug addrflow catches in host code, hidden inside a TDL loop.
//
// This file closes that hole with exact integer arithmetic (math/big):
//
//   - every operand byte size is computed exactly and must fit the 63-bit
//     size domain before a Span is ever built from it (fitBytes);
//   - for every operand of every invocation, the per-iteration span at the
//     extreme trips of the enclosing loop nest is computed exactly and must
//     stay inside [0, 2^64) (checkIntervals). Because the per-iteration
//     offset is linear in each induction variable, the extremes bound every
//     trip: minimum start at the last trip of every negative-stride level,
//     maximum end at the last trip of every positive-stride level.
//
// Once both hold, the machine-width extension in extend is exact — no term
// overflows — so the downstream checks that trust ext are sound. Failures
// carry the witness iteration vector so the error names the first trip the
// descriptor escapes its declared operand.

package tdlcheck

import (
	"fmt"
	"math/big"

	"mealib/internal/accel"
	"mealib/internal/descriptor"
	"mealib/internal/units"
)

// addrSpace is 2^64, the exclusive upper bound of the physical address
// space.
var addrSpace = new(big.Int).Lsh(big.NewInt(1), 64)

// fitBytes evaluates an operand extent, Elem·(Rows·Pitch + Tail), in exact
// arithmetic and narrows it into the verifier's size domain, failing when
// the machine-width arithmetic downstream would overflow. n and v are
// scratch, reused across one invocation's operands.
func fitBytes(e accel.Extent, n, v *big.Int, op descriptor.OpCode, name string, fail func(format string, args ...interface{})) (units.Bytes, bool) {
	n.Mul(big.NewInt(e.Rows), big.NewInt(e.Pitch))
	v.Mul(n.Add(n, big.NewInt(e.Tail)), big.NewInt(e.Elem))
	if v.Sign() < 0 || !v.IsInt64() {
		fail("%v: operand %s: byte size %s exceeds the verifier's 63-bit size domain", op, name, v.String())
		return 0, false
	}
	return units.Bytes(v.Int64()), true
}

// witness is the iteration vector (one index per hardware loop level) at
// which an interval bound is attained.
type witness [descriptor.MaxLoopLevels]int64

// String renders the vector innermost-last, matching LoopCounts order.
func (w witness) String() string {
	s := "("
	for l, i := range w {
		if l > 0 {
			s += ","
		}
		s += fmt.Sprintf("%d", i)
	}
	return s + ")"
}

// checkIntervals proves, for every operand of the invocation and every trip
// of its enclosing loop nest, that the per-iteration span stays inside the
// 64-bit physical address space and that the whole-loop extent is
// representable. All arithmetic is exact; a failure reports the iteration
// vector that first escapes.
func checkIntervals(c *comp, e *errs) {
	for _, o := range c.ops {
		lo := new(big.Int).SetUint64(uint64(o.base.Addr))
		hi := new(big.Int).Add(lo, big.NewInt(int64(o.base.Bytes)))
		minOff, maxOff := new(big.Int), new(big.Int)
		var witMin, witMax witness
		for l := 0; l < descriptor.MaxLoopLevels; l++ {
			n := int64(c.counts[l])
			if n < 1 {
				n = 1
			}
			d := new(big.Int).Mul(big.NewInt(o.strides[l]), big.NewInt(n-1))
			switch d.Sign() {
			case -1:
				minOff.Add(minOff, d)
				witMin[l] = n - 1
			case 1:
				maxOff.Add(maxOff, d)
				witMax[l] = n - 1
			}
		}
		start := new(big.Int).Add(lo, minOff)
		end := new(big.Int).Add(hi, maxOff)
		if start.Sign() < 0 {
			e.addf(c.line, c.idx, "%v: operand %s %v: loop stride arithmetic underflows the physical address space at iteration %v (start %v < 0); the span the verifier checks does not contain the addresses the loop touches",
				c.op, o.name, o.base, witMin, start)
		}
		// Strictly below 2^64: a span ending exactly at the top of the space
		// has a machine end() of zero, which silently breaks every Overlaps
		// comparison downstream.
		if end.Cmp(addrSpace) >= 0 {
			e.addf(c.line, c.idx, "%v: operand %s %v: loop stride arithmetic wraps the 64-bit physical address space at iteration %v (end %v >= 2^64); the span the verifier checks does not contain the addresses the loop touches",
				c.op, o.name, o.base, witMax, end)
		}
		if total := new(big.Int).Sub(end, start); !total.IsInt64() {
			e.addf(c.line, c.idx, "%v: operand %s: whole-loop extent %v bytes exceeds the verifier's 63-bit size domain",
				c.op, o.name, total)
		}
	}
}
