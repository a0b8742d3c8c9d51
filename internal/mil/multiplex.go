package mil

import (
	"fmt"

	"repro/internal/bat"
)

// Operand is one argument of a multiplexed operation: either a BAT (a value
// set) or a constant lifted over it.
type Operand struct {
	B     *bat.BAT
	Const *bat.Value
}

// BATArg wraps a BAT operand.
func BATArg(b *bat.BAT) Operand { return Operand{B: b} }

// ConstArg wraps a constant operand.
func ConstArg(v bat.Value) Operand { return Operand{Const: &v} }

// Multiplex implements the multiplex constructor [f](AB, …, XY):
// {a·f(b,…,y) | ab ∈ AB, …, xy ∈ XY ∧ a = … = x} (Fig. 4). It vectorizes
// computation of expressions and method invocations (Section 4.2). Constant
// operands are broadcast.
//
// When all BAT operands are positionally synced (the common case: they all
// stem from semijoins with the same candidate set, cf. the Fig. 10
// discussion of synced prices/discount), the natural join on heads
// degenerates to an aligned scan, which runs typed loops over the operands'
// backing slices for the built-in functions (see multiplexAligned).
// Otherwise operands are matched on head value via hash lookup and f is
// applied row at a time. Either way the result kind follows from the
// operand kinds by moa.Check's typing rules, never from the value a row
// happens to produce.
func Multiplex(ctx *Ctx, fn string, args []Operand) *bat.BAT {
	f, ok := LookupFunc(fn)
	if !ok {
		panic(fmt.Sprintf("mil: multiplex of unknown function %q", fn))
	}
	nb := 0
	var first *bat.BAT
	for _, a := range args {
		if a.B != nil {
			if first == nil {
				first = a.B
			}
			nb++
		}
	}
	if first == nil {
		panic("mil: multiplex needs at least one BAT operand")
	}
	if f.Arity >= 0 && f.Arity != len(args) {
		panic(fmt.Sprintf("mil: function %q wants %d args, got %d", fn, f.Arity, len(args)))
	}

	aligned := true
	for _, a := range args {
		if a.B != nil && a.B != first && !bat.Synced(first, a.B) {
			aligned = false
			break
		}
	}
	if aligned {
		return multiplexAligned(ctx, f, first, args)
	}
	return multiplexHash(ctx, f, first, args)
}

// multiplexAligned evaluates [f] over positionally synced operands. The
// built-in functions run typed loops over the backing slices — one
// interpretation step per column, none per row (multiplex_kernels.go):
//
//   - = != < <= > >= over two operands of one kind (int, flt, date, oid or
//     void, chr, str) or over mixed int/flt;
//   - and, or, not over bits; if with a bit condition and branches of one
//     kind or of mixed int/flt;
//   - strstarts, strcontains, strends over strings; year, month over dates;
//   - flt, int and + - * / over int and flt.
//
// Every other combination — adddays, addmonths, length, neg, snd, cross-kind
// comparisons, and functions registered beside the built-ins — falls back
// to the boxed row loop through f.Apply. Both paths give the result
// the kind resultKind derives from the operand kinds.
func multiplexAligned(ctx *Ctx, f *Func, first *bat.BAT, args []Operand) *bat.BAT {
	ctx.chose("aligned-multiplex")
	p := ctx.pager()
	for _, a := range args {
		if a.B != nil {
			a.B.T.TouchAll(p)
		}
	}
	n := first.Len()
	kind, ruled := resultKind(f, args)
	var col bat.Column
	if ruled {
		col = typedMultiplex(ctx, f.Name, args, n)
	}
	if col == nil {
		vals := make([]bat.Value, n)
		parallelFill(ctx, n, func(from, to int) {
			buf := make([]bat.Value, len(args))
			for i := from; i < to; i++ {
				for j, a := range args {
					if a.B != nil {
						buf[j] = a.B.T.Get(i)
					} else {
						buf[j] = *a.Const
					}
				}
				vals[i] = f.Apply(buf)
			}
		})
		col = bat.FromValues(boxedKind(kind, ruled, vals, args), vals)
	}
	out := bat.New("["+f.Name+"]", first.H, col, first.Props&(bat.HOrdered|bat.HKey))
	out.SyncWith(first)
	return out
}

// operandKind is the kind f.Apply sees for a: a constant's own kind, a
// column's kind with void folded into oid (void entries box as oids).
func operandKind(a Operand) bat.Kind {
	if a.Const != nil {
		return a.Const.K
	}
	return normValKind(a.B.T.Kind())
}

// resultKind types [f] from its operand kinds by moa.Check's rules
// (scalarResultType), which every built-in Apply honours: comparisons and
// connectives yield bit; + - * yield int over two ints and flt otherwise;
// if yields its branches' kind, promoting mixed int/flt to flt. ok is false
// for if over other mixed branches and for functions registered beside the
// built-ins, which have no static rule.
func resultKind(f *Func, args []Operand) (bat.Kind, bool) {
	switch f.Name {
	case "=", "!=", "<", "<=", ">", ">=", "and", "or", "not",
		"strstarts", "strcontains", "strends":
		return bat.KBit, true
	case "+", "-", "*":
		if operandKind(args[0]) == bat.KInt && operandKind(args[1]) == bat.KInt {
			return bat.KInt, true
		}
		return bat.KFlt, true
	case "neg":
		if operandKind(args[0]) == bat.KInt {
			return bat.KInt, true
		}
		return bat.KFlt, true
	case "/", "flt":
		return bat.KFlt, true
	case "year", "month", "length", "int":
		return bat.KInt, true
	case "adddays", "addmonths":
		return bat.KDate, true
	case "snd":
		return operandKind(args[1]), true
	case "if":
		k1, k2 := operandKind(args[1]), operandKind(args[2])
		switch {
		case k1 == k2:
			return k1, true
		case isNumKind(k1) && isNumKind(k2):
			return bat.KFlt, true
		}
	}
	return 0, false
}

func isNumKind(k bat.Kind) bool { return k == bat.KInt || k == bat.KFlt }

// boxedKind is the column kind of a boxed result: the static rule when there
// is one, else row 0's kind, else (no rows) the first BAT operand's kind.
func boxedKind(kind bat.Kind, ruled bool, vals []bat.Value, args []Operand) bat.Kind {
	switch {
	case ruled:
		return kind
	case len(vals) > 0:
		return vals[0].K
	}
	for _, a := range args {
		if a.B != nil {
			return a.B.T.Kind()
		}
	}
	return bat.KInt
}

func multiplexHash(ctx *Ctx, f *Func, first *bat.BAT, args []Operand) *bat.BAT {
	ctx.chose("hash-multiplex")
	p := ctx.pager()
	// Build head→position maps for all non-first BAT operands; iterate the
	// first in order (natural join on heads, assuming key heads — true for
	// value sets, which are identified value sets by construction).
	type lookup struct {
		arg Operand
		idx map[bat.Value]int
	}
	lookups := make([]lookup, len(args))
	for j, a := range args {
		lookups[j].arg = a
		if a.B != nil && a.B != first {
			a.B.H.TouchAll(p)
			a.B.T.TouchAll(p)
			m := make(map[bat.Value]int, a.B.Len())
			for i := 0; i < a.B.Len(); i++ {
				h := a.B.H.Get(i)
				if _, dup := m[h]; !dup {
					m[h] = i
				}
			}
			lookups[j].idx = m
		}
	}
	first.H.TouchAll(p)
	first.T.TouchAll(p)

	buf := make([]bat.Value, len(args))
	var heads, vals []bat.Value
outer:
	for i := 0; i < first.Len(); i++ {
		h := first.H.Get(i)
		for j, a := range args {
			switch {
			case a.Const != nil:
				buf[j] = *a.Const
			case a.B == first:
				buf[j] = first.T.Get(i)
			default:
				pos, ok := lookups[j].idx[h]
				if !ok {
					continue outer // natural join: drop unmatched heads
				}
				buf[j] = a.B.T.Get(pos)
			}
		}
		heads = append(heads, h)
		vals = append(vals, f.Apply(buf))
	}
	kind, ruled := resultKind(f, args)
	out := bat.New("["+f.Name+"]", bat.FromValues(first.H.Kind(), heads),
		bat.FromValues(boxedKind(kind, ruled, vals, args), vals), 0)
	if first.Props.Has(bat.HOrdered) {
		out.Props |= bat.HOrdered
	}
	if first.Props.Has(bat.HKey) {
		out.Props |= bat.HKey
	}
	if out.Len() == first.Len() {
		out.SyncWith(first)
	}
	return out
}
