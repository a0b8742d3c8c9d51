package mil

import (
	"cmp"
	"strings"

	"repro/internal/bat"
)

// Typed multiplex kernels: the aligned multiplex of the built-in functions
// as loops over the operands' backing slices. The function and the operand
// kinds are dispatched once per call; no row boxes a bat.Value. Each kernel
// reproduces its function's Apply bit for bit (multiplex_test.go holds the
// boxed row loop as the oracle).

// lane is one operand of a typed kernel: a column's backing slice, or a
// one-element slice holding a broadcast constant. Row i reads v[i&m], with m
// all ones for a column and 0 for a constant, so one loop body serves
// col/col, col/const and const/col.
type lane[E any] struct {
	v []E
	m int
}

// laneOf returns a's lane when it is a C column or a constant (whose kind
// the caller has checked); ok is false for any other column implementation.
func laneOf[E any, C bat.Column](a Operand, backing func(C) []E, konst func(bat.Value) E) (lane[E], bool) {
	if a.Const != nil {
		return lane[E]{v: []E{konst(*a.Const)}}, true
	}
	c, ok := a.B.T.(C)
	if !ok {
		return lane[E]{}, false
	}
	return lane[E]{v: backing(c), m: -1}, true
}

func intLane(a Operand) (lane[int64], bool) {
	return laneOf(a, func(c *bat.IntCol) []int64 { return c.V }, func(v bat.Value) int64 { return v.I })
}

func fltLane(a Operand) (lane[float64], bool) {
	return laneOf(a, func(c *bat.FltCol) []float64 { return c.V }, func(v bat.Value) float64 { return v.F })
}

func dateLane(a Operand) (lane[int32], bool) {
	return laneOf(a, func(c *bat.DateCol) []int32 { return c.V }, func(v bat.Value) int32 { return int32(v.I) })
}

func chrLane(a Operand) (lane[byte], bool) {
	return laneOf(a, func(c *bat.ChrCol) []byte { return c.V }, func(v bat.Value) byte { return byte(v.I) })
}

func bitLane(a Operand) (lane[bool], bool) {
	return laneOf(a, func(c *bat.BitCol) []bool { return c.V }, func(v bat.Value) bool { return v.I != 0 })
}

// oidLane also accepts void columns, materializing their dense sequence.
func oidLane(a Operand) (lane[bat.OID], bool) {
	if a.B != nil {
		if c, ok := a.B.T.(*bat.VoidCol); ok {
			v := make([]bat.OID, c.N)
			for i := range v {
				v[i] = c.Seq + bat.OID(i)
			}
			return lane[bat.OID]{v: v, m: -1}, true
		}
	}
	return laneOf(a, func(c *bat.OIDCol) []bat.OID { return c.V }, func(v bat.Value) bat.OID { return bat.OID(v.I) })
}

// strLane is the string lane: a StrCol's offsets and character heap, or a
// constant as a one-entry heap.
type strLane struct {
	off   []uint32
	chars string
	m     int
}

func (l strLane) at(i int) string {
	j := i & l.m
	return l.chars[l.off[j]:l.off[j+1]]
}

func strLaneOf(a Operand) (strLane, bool) {
	if a.Const != nil {
		return strLane{off: []uint32{0, uint32(len(a.Const.S))}, chars: a.Const.S}, true
	}
	c, ok := a.B.T.(*bat.StrCol)
	if !ok {
		return strLane{}, false
	}
	return strLane{off: c.Off, chars: c.Chars, m: -1}, true
}

// numLane is an int or flt lane, for the kernels that widen ints.
type numLane struct {
	i   lane[int64]
	f   lane[float64]
	isF bool
	ok  bool
}

func numLaneOf(a Operand) numLane {
	switch operandKind(a) {
	case bat.KInt:
		l, ok := intLane(a)
		return numLane{i: l, ok: ok}
	case bat.KFlt:
		l, ok := fltLane(a)
		return numLane{f: l, isF: true, ok: ok}
	}
	return numLane{}
}

// fill allocates the n-row output of a kernel and runs loop over it in
// morsels (parallelFill); rows are independent, so every worker count yields
// the same vector.
func fill[E any](ctx *Ctx, n int, loop func(out []E, lo, hi int)) []E {
	out := make([]E, n)
	parallelFill(ctx, n, func(lo, hi int) { loop(out, lo, hi) })
	return out
}

// typedMultiplex runs the kernel of the built-in fn over args, or returns
// nil when fn or the operand kinds have none (the caller then boxes).
func typedMultiplex(ctx *Ctx, fn string, args []Operand, n int) bat.Column {
	switch fn {
	case "=", "!=", "<", "<=", ">", ">=":
		return typedCompare(ctx, cmpTable(fn), args[0], args[1], n)
	case "and", "or":
		return typedConnective(ctx, fn == "and", args, n)
	case "not":
		if x, ok := bitLaneOfKind(args[0]); ok {
			return bat.NewBitCol(fill(ctx, n, func(out []bool, lo, hi int) {
				for i := lo; i < hi; i++ {
					out[i] = !x.v[i&x.m]
				}
			}))
		}
	case "if":
		return typedIf(ctx, args, n)
	case "strstarts", "strcontains", "strends":
		return typedStrPred(ctx, fn, args[0], args[1], n)
	case "year", "month":
		return typedDatePart(ctx, fn == "year", args[0], n)
	case "flt", "int":
		return typedConvert(ctx, fn == "flt", args[0], n)
	case "+", "-", "*", "/":
		return typedArith(ctx, fn[0], args[0], args[1], n)
	}
	return nil
}

func bitLaneOfKind(a Operand) (lane[bool], bool) {
	if operandKind(a) != bat.KBit {
		return lane[bool]{}, false
	}
	return bitLane(a)
}

// cmpTable maps a comparison to its outcome for bat.Compare's three results,
// indexed less, equal, greater.
func cmpTable(fn string) [3]bool {
	switch fn {
	case "=":
		return [3]bool{false, true, false}
	case "!=":
		return [3]bool{true, false, true}
	case "<":
		return [3]bool{true, false, false}
	case "<=":
		return [3]bool{true, true, false}
	case ">":
		return [3]bool{false, false, true}
	}
	return [3]bool{false, true, true} // >=
}

// order3 is bat.Compare's three-way result as a cmpTable index. Values
// neither less nor greater — equal, or a NaN against anything — are equal,
// as in bat.Compare. It is branch-free: comparison outcomes on real data
// are unpredictable.
func order3[E cmp.Ordered](a, b E) int {
	return 1 + b2i(a > b) - b2i(a < b)
}

// b2i widens a bool to 0/1; the compiler emits a zero-extension, not a
// branch.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

func compareLoop[E cmp.Ordered](want [3]bool, x, y lane[E], out []bool, lo, hi int) {
	for i := lo; i < hi; i++ {
		out[i] = want[order3(x.v[i&x.m], y.v[i&y.m])]
	}
}

// compareWidened compares mixed int/flt lanes as floats, as bat.Compare does.
func compareWidened[X, Y int64 | float64](want [3]bool, x lane[X], y lane[Y], out []bool, lo, hi int) {
	for i := lo; i < hi; i++ {
		out[i] = want[order3(float64(x.v[i&x.m]), float64(y.v[i&y.m]))]
	}
}

// compareLanes runs compareLoop when both operands have E lanes.
func compareLanes[E cmp.Ordered](ctx *Ctx, want [3]bool, x, y Operand, n int, laneFn func(Operand) (lane[E], bool)) bat.Column {
	lx, ok1 := laneFn(x)
	ly, ok2 := laneFn(y)
	if !ok1 || !ok2 {
		return nil
	}
	return bat.NewBitCol(fill(ctx, n, func(out []bool, lo, hi int) { compareLoop(want, lx, ly, out, lo, hi) }))
}

func typedCompare(ctx *Ctx, want [3]bool, x, y Operand, n int) bat.Column {
	kx, ky := operandKind(x), operandKind(y)
	if kx != ky {
		nx, ny := numLaneOf(x), numLaneOf(y)
		if !nx.ok || !ny.ok {
			return nil // cross-kind order is by kind: boxed
		}
		return bat.NewBitCol(fill(ctx, n, func(out []bool, lo, hi int) {
			if nx.isF {
				compareWidened(want, nx.f, ny.i, out, lo, hi)
			} else {
				compareWidened(want, nx.i, ny.f, out, lo, hi)
			}
		}))
	}
	switch kx {
	case bat.KInt:
		return compareLanes(ctx, want, x, y, n, intLane)
	case bat.KFlt:
		return compareLanes(ctx, want, x, y, n, fltLane)
	case bat.KDate:
		return compareLanes(ctx, want, x, y, n, dateLane)
	case bat.KOID:
		return compareLanes(ctx, want, x, y, n, oidLane)
	case bat.KChr:
		return compareLanes(ctx, want, x, y, n, chrLane)
	case bat.KStr:
		lx, ok1 := strLaneOf(x)
		ly, ok2 := strLaneOf(y)
		if !ok1 || !ok2 {
			return nil
		}
		if want[0] == want[2] { // = and !=: one equality test, no ordering
			return bat.NewBitCol(fill(ctx, n, func(out []bool, lo, hi int) {
				for i := lo; i < hi; i++ {
					out[i] = (lx.at(i) == ly.at(i)) == want[1]
				}
			}))
		}
		return bat.NewBitCol(fill(ctx, n, func(out []bool, lo, hi int) {
			for i := lo; i < hi; i++ {
				out[i] = want[strings.Compare(lx.at(i), ly.at(i))+1]
			}
		}))
	}
	return nil
}

// typedConnective folds and/or over bit operands, argument by argument.
func typedConnective(ctx *Ctx, and bool, args []Operand, n int) bat.Column {
	lanes := make([]lane[bool], len(args))
	for j, a := range args {
		l, ok := bitLaneOfKind(a)
		if !ok {
			return nil
		}
		lanes[j] = l
	}
	return bat.NewBitCol(fill(ctx, n, func(out []bool, lo, hi int) {
		for i := lo; i < hi; i++ {
			out[i] = and
		}
		// & and | over 0/1 instead of && and ||: no branch per row
		for _, x := range lanes {
			if and {
				for i := lo; i < hi; i++ {
					out[i] = b2i(out[i])&b2i(x.v[i&x.m]) != 0
				}
			} else {
				for i := lo; i < hi; i++ {
					out[i] = b2i(out[i])|b2i(x.v[i&x.m]) != 0
				}
			}
		}
	}))
}

func ifLoop[E any](c lane[bool], x, y lane[E], out []E, lo, hi int) {
	for i := lo; i < hi; i++ {
		if c.v[i&c.m] {
			out[i] = x.v[i&x.m]
		} else {
			out[i] = y.v[i&y.m]
		}
	}
}

// ifWidened selects between mixed int/flt branches into a flt column.
func ifWidened[X, Y int64 | float64](c lane[bool], x lane[X], y lane[Y], out []float64, lo, hi int) {
	for i := lo; i < hi; i++ {
		if c.v[i&c.m] {
			out[i] = float64(x.v[i&x.m])
		} else {
			out[i] = float64(y.v[i&y.m])
		}
	}
}

// ifLanes runs ifLoop when both branches have E lanes.
func ifLanes[E any](ctx *Ctx, c lane[bool], x, y Operand, n int, laneFn func(Operand) (lane[E], bool)) ([]E, bool) {
	lx, ok1 := laneFn(x)
	ly, ok2 := laneFn(y)
	if !ok1 || !ok2 {
		return nil, false
	}
	return fill(ctx, n, func(out []E, lo, hi int) { ifLoop(c, lx, ly, out, lo, hi) }), true
}

func typedIf(ctx *Ctx, args []Operand, n int) bat.Column {
	c, ok := bitLaneOfKind(args[0])
	if !ok {
		return nil
	}
	x, y := args[1], args[2]
	k1, k2 := operandKind(x), operandKind(y)
	if k1 != k2 {
		nx, ny := numLaneOf(x), numLaneOf(y)
		if !nx.ok || !ny.ok {
			return nil
		}
		return bat.NewFltCol(fill(ctx, n, func(out []float64, lo, hi int) {
			if nx.isF {
				ifWidened(c, nx.f, ny.i, out, lo, hi)
			} else {
				ifWidened(c, nx.i, ny.f, out, lo, hi)
			}
		}))
	}
	switch k1 {
	case bat.KInt:
		if v, ok := ifLanes(ctx, c, x, y, n, intLane); ok {
			return bat.NewIntCol(v)
		}
	case bat.KFlt:
		if v, ok := ifLanes(ctx, c, x, y, n, fltLane); ok {
			return bat.NewFltCol(v)
		}
	case bat.KDate:
		if v, ok := ifLanes(ctx, c, x, y, n, dateLane); ok {
			return bat.NewDateCol(v)
		}
	case bat.KOID:
		if v, ok := ifLanes(ctx, c, x, y, n, oidLane); ok {
			return bat.NewOIDCol(v)
		}
	case bat.KChr:
		if v, ok := ifLanes(ctx, c, x, y, n, chrLane); ok {
			return bat.NewChrCol(v)
		}
	case bat.KBit:
		if v, ok := ifLanes(ctx, c, x, y, n, bitLane); ok {
			return bat.NewBitCol(v)
		}
	case bat.KStr:
		lx, ok1 := strLaneOf(x)
		ly, ok2 := strLaneOf(y)
		if !ok1 || !ok2 {
			return nil
		}
		return bat.NewStrColFromStrings(fill(ctx, n, func(out []string, lo, hi int) {
			for i := lo; i < hi; i++ {
				if c.v[i&c.m] {
					out[i] = lx.at(i)
				} else {
					out[i] = ly.at(i)
				}
			}
		}))
	}
	return nil
}

func typedStrPred(ctx *Ctx, fn string, x, y Operand, n int) bat.Column {
	if operandKind(x) != bat.KStr || operandKind(y) != bat.KStr {
		return nil
	}
	lx, ok1 := strLaneOf(x)
	ly, ok2 := strLaneOf(y)
	if !ok1 || !ok2 {
		return nil
	}
	pred := strings.HasPrefix
	switch fn {
	case "strcontains":
		pred = strings.Contains
	case "strends":
		pred = strings.HasSuffix
	}
	return bat.NewBitCol(fill(ctx, n, func(out []bool, lo, hi int) {
		for i := lo; i < hi; i++ {
			out[i] = pred(lx.at(i), ly.at(i))
		}
	}))
}

func typedDatePart(ctx *Ctx, year bool, x Operand, n int) bat.Column {
	if operandKind(x) != bat.KDate {
		return nil
	}
	l, ok := dateLane(x)
	if !ok {
		return nil
	}
	return bat.NewIntCol(fill(ctx, n, func(out []int64, lo, hi int) {
		for i := lo; i < hi; i++ {
			t := dayToTime(int64(l.v[i&l.m]))
			if year {
				out[i] = int64(t.Year())
			} else {
				out[i] = int64(t.Month())
			}
		}
	}))
}

// typedConvert is flt (widen to float) or int (truncate through float, as
// Apply's int64(AsFloat()) does) over an int or flt operand.
func typedConvert(ctx *Ctx, toFlt bool, x Operand, n int) bat.Column {
	nx := numLaneOf(x)
	if !nx.ok {
		return nil
	}
	if toFlt {
		if nx.isF {
			return bat.NewFltCol(fill(ctx, n, func(out []float64, lo, hi int) { convertLoop(nx.f, out, lo, hi) }))
		}
		return bat.NewFltCol(fill(ctx, n, func(out []float64, lo, hi int) { convertLoop(nx.i, out, lo, hi) }))
	}
	if nx.isF {
		return bat.NewIntCol(fill(ctx, n, func(out []int64, lo, hi int) { truncLoop(nx.f, out, lo, hi) }))
	}
	return bat.NewIntCol(fill(ctx, n, func(out []int64, lo, hi int) { truncLoop(nx.i, out, lo, hi) }))
}

func convertLoop[X int64 | float64](x lane[X], out []float64, lo, hi int) {
	for i := lo; i < hi; i++ {
		out[i] = float64(x.v[i&x.m])
	}
}

func truncLoop[X int64 | float64](x lane[X], out []int64, lo, hi int) {
	for i := lo; i < hi; i++ {
		out[i] = int64(float64(x.v[i&x.m]))
	}
}

// typedArith is + - * / over int and flt operands: int arithmetic over two
// ints (except /), float arithmetic over the widened operands otherwise.
func typedArith(ctx *Ctx, op byte, x, y Operand, n int) bat.Column {
	nx, ny := numLaneOf(x), numLaneOf(y)
	if !nx.ok || !ny.ok {
		return nil
	}
	if !nx.isF && !ny.isF && op != '/' {
		return bat.NewIntCol(fill(ctx, n, func(out []int64, lo, hi int) { arithInt(op, nx.i, ny.i, out, lo, hi) }))
	}
	return bat.NewFltCol(fill(ctx, n, func(out []float64, lo, hi int) {
		switch {
		case nx.isF && ny.isF:
			arithFlt(op, nx.f, ny.f, out, lo, hi)
		case nx.isF:
			arithFlt(op, nx.f, ny.i, out, lo, hi)
		case ny.isF:
			arithFlt(op, nx.i, ny.f, out, lo, hi)
		default:
			arithFlt(op, nx.i, ny.i, out, lo, hi)
		}
	}))
}

func arithInt(op byte, x, y lane[int64], out []int64, lo, hi int) {
	switch op {
	case '+':
		for i := lo; i < hi; i++ {
			out[i] = x.v[i&x.m] + y.v[i&y.m]
		}
	case '-':
		for i := lo; i < hi; i++ {
			out[i] = x.v[i&x.m] - y.v[i&y.m]
		}
	case '*':
		for i := lo; i < hi; i++ {
			out[i] = x.v[i&x.m] * y.v[i&y.m]
		}
	}
}

// arithFlt widens both operands to float64; / yields 0 for a zero divisor,
// as the boxed function does.
func arithFlt[X, Y int64 | float64](op byte, x lane[X], y lane[Y], out []float64, lo, hi int) {
	switch op {
	case '+':
		for i := lo; i < hi; i++ {
			out[i] = float64(x.v[i&x.m]) + float64(y.v[i&y.m])
		}
	case '-':
		for i := lo; i < hi; i++ {
			out[i] = float64(x.v[i&x.m]) - float64(y.v[i&y.m])
		}
	case '*':
		for i := lo; i < hi; i++ {
			out[i] = float64(x.v[i&x.m]) * float64(y.v[i&y.m])
		}
	case '/':
		for i := lo; i < hi; i++ {
			d := float64(y.v[i&y.m])
			if d == 0 {
				out[i] = 0
			} else {
				out[i] = float64(x.v[i&x.m]) / d
			}
		}
	}
}
