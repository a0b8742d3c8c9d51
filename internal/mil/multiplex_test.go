package mil

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/bat"
)

// boxedMultiplex is the parity oracle for the aligned multiplex: one boxed
// Value per operand per row through f.Apply, the column typed by
// resultKind (row 0's kind for functions without a rule).
func boxedMultiplex(f *Func, args []Operand, n int) bat.Column {
	vals := make([]bat.Value, n)
	buf := make([]bat.Value, len(args))
	for i := 0; i < n; i++ {
		for j, a := range args {
			if a.B != nil {
				buf[j] = a.B.T.Get(i)
			} else {
				buf[j] = *a.Const
			}
		}
		vals[i] = f.Apply(buf)
	}
	kind, ruled := resultKind(f, args)
	return bat.FromValues(boxedKind(kind, ruled, vals, args), vals)
}

// testKinds are the column kinds a multiplex operand can take.
var testKinds = []bat.Kind{bat.KVoid, bat.KOID, bat.KInt, bat.KFlt, bat.KStr, bat.KChr, bat.KBit, bat.KDate}

// kindValues are the values drawn for each kind: the edge cases of the
// boxed semantics (NaN, −0, ±Inf, int64 limits, ints beyond 2^53, empty and
// prefix-sharing strings) next to the Figure-9 constants.
func kindValues(k bat.Kind) []bat.Value {
	switch k {
	case bat.KOID, bat.KVoid:
		return []bat.Value{bat.O(0), bat.O(1), bat.O(2), bat.O(7)}
	case bat.KInt:
		return []bat.Value{bat.I(0), bat.I(1), bat.I(-1), bat.I(7), bat.I(1995),
			bat.I(math.MaxInt64), bat.I(math.MinInt64), bat.I(1<<53 + 1)}
	case bat.KFlt:
		return []bat.Value{bat.F(0), bat.F(math.Copysign(0, -1)), bat.F(1), bat.F(-2.25),
			bat.F(0.07), bat.F(7), bat.F(1995), bat.F(math.NaN()), bat.F(math.Inf(1)), bat.F(math.Inf(-1))}
	case bat.KStr:
		return []bat.Value{bat.S(""), bat.S("PROMO"), bat.S("PROMO BRUSHED"), bat.S("PRO"),
			bat.S("STANDARD BRUSHED"), bat.S("BRUSHED"), bat.S("green")}
	case bat.KChr:
		return []bat.Value{bat.C('A'), bat.C('N'), bat.C('R'), bat.C(0)}
	case bat.KBit:
		return []bat.Value{bat.B(false), bat.B(true)}
	case bat.KDate:
		return []bat.Value{bat.D(0), bat.D(-1), bat.D(8766), bat.MustDate("1995-09-01"),
			bat.MustDate("1996-02-29"), bat.D(1 << 20)}
	}
	panic("no values for " + k.String())
}

// testColumn draws an n-row column of kind k; a non-zero off returns a view
// starting off rows into a longer column (void: a shifted sequence).
func testColumn(rng *rand.Rand, k bat.Kind, n, off int) bat.Column {
	if k == bat.KVoid {
		return bat.SliceView(bat.NewVoid(bat.OID(rng.Intn(4)), n+off), off, n)
	}
	pool := kindValues(k)
	vals := make([]bat.Value, n+off)
	for i := range vals {
		vals[i] = pool[rng.Intn(len(pool))]
	}
	col := bat.FromValues(k, vals)
	if off == 0 {
		return col
	}
	return bat.SliceView(col, off, n)
}

// multiplexCase builds the operands of one shape: kinds[j] per argument,
// argument j a column when bit j of cols is set and a constant otherwise
// (void is column-only). It reports false for shapes without a column.
func multiplexCase(rng *rand.Rand, kinds []bat.Kind, cols uint, n, off int) ([]Operand, bool) {
	if cols == 0 {
		return nil, false
	}
	head := bat.NewVoid(0, n)
	args := make([]Operand, len(kinds))
	var first *bat.BAT
	for j, k := range kinds {
		if cols&(1<<j) == 0 {
			if k == bat.KVoid {
				return nil, false
			}
			pool := kindValues(k)
			args[j] = ConstArg(pool[rng.Intn(len(pool))])
			continue
		}
		b := bat.New("x", head, testColumn(rng, k, n, off), 0)
		if first == nil {
			first = b
		} else {
			b.SyncWith(first)
		}
		args[j] = BATArg(b)
	}
	return args, true
}

// checkMultiplexParity runs [fn] aligned and against the boxed oracle and
// requires the same kind and bit-identical values.
func checkMultiplexParity(t *testing.T, fn string, args []Operand, n int) {
	t.Helper()
	f, _ := LookupFunc(fn)
	ctx := &Ctx{}
	got := Multiplex(ctx, fn, args)
	if ctx.LastAlgo() != "aligned-multiplex" {
		t.Fatalf("[%s]: algo %s", fn, ctx.LastAlgo())
	}
	want := boxedMultiplex(f, args, n)
	if err := sameColumn(got.T, want); err != "" {
		t.Fatalf("[%s](%s): %s", fn, describeArgs(args), err)
	}
}

// sameColumn reports how two columns differ: kind, length, or the first row
// whose values are not bit-identical ("" when they agree).
func sameColumn(got, want bat.Column) string {
	if got.Kind() != want.Kind() {
		return "kind " + got.Kind().String() + ", want " + want.Kind().String()
	}
	if got.Len() != want.Len() {
		return "length differs"
	}
	for i := 0; i < got.Len(); i++ {
		g, w := got.Get(i), want.Get(i)
		if g.K != w.K || g.I != w.I || g.S != w.S || math.Float64bits(g.F) != math.Float64bits(w.F) {
			return "row " + g.String() + ", want " + w.String()
		}
	}
	return ""
}

func describeArgs(args []Operand) string {
	s := ""
	for j, a := range args {
		if j > 0 {
			s += ", "
		}
		if a.Const != nil {
			s += "const " + a.Const.String()
		} else {
			s += a.B.T.Kind().String() + " col"
		}
	}
	return s
}

func funcNames() []string {
	names := make([]string, 0, len(funcs))
	for name := range funcs {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

func arities(f *Func) []int {
	if f.Arity >= 0 {
		return []int{f.Arity}
	}
	return []int{1, 2, 3}
}

// TestTypedMultiplexMatchesBoxed: for every registered function, every
// operand kind per argument and every col/const shape, the aligned
// multiplex equals the boxed row loop — result kind and every value bit for
// bit — on empty inputs, on plain columns and on views at an offset.
func TestTypedMultiplexMatchesBoxed(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, fn := range funcNames() {
		f := funcs[fn]
		for _, arity := range arities(f) {
			kinds := make([]bat.Kind, arity)
			var walk func(j int)
			walk = func(j int) {
				if j == arity {
					for cols := uint(1); cols < 1<<arity; cols++ {
						for _, size := range [][2]int{{0, 0}, {41, 0}, {23, 5}} {
							if args, ok := multiplexCase(rng, kinds, cols, size[0], size[1]); ok {
								checkMultiplexParity(t, fn, args, size[0])
							}
						}
					}
					return
				}
				for _, k := range testKinds {
					kinds[j] = k
					walk(j + 1)
				}
			}
			walk(0)
		}
	}
}

// TestTypedMultiplexCoversFigure9Shapes pins that the shapes the Figure-9
// plans multiplex take a typed kernel rather than the boxed fallback.
func TestTypedMultiplexCoversFigure9Shapes(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	shapes := []struct {
		fn    string
		kinds []bat.Kind
		cols  uint
	}{
		{"=", []bat.Kind{bat.KStr, bat.KStr}, 1},
		{"=", []bat.Kind{bat.KChr, bat.KChr}, 1},
		{"and", []bat.Kind{bat.KBit, bat.KBit}, 3},
		{"or", []bat.Kind{bat.KBit, bat.KBit, bat.KBit}, 7},
		{"not", []bat.Kind{bat.KBit}, 1},
		{"<", []bat.Kind{bat.KDate, bat.KDate}, 3},
		{">=", []bat.Kind{bat.KDate, bat.KDate}, 1},
		{"<", []bat.Kind{bat.KInt, bat.KFlt}, 1},
		{"=", []bat.Kind{bat.KOID, bat.KVoid}, 3},
		{"strcontains", []bat.Kind{bat.KStr, bat.KStr}, 1},
		{"strstarts", []bat.Kind{bat.KStr, bat.KStr}, 1},
		{"strends", []bat.Kind{bat.KStr, bat.KStr}, 3},
		{"if", []bat.Kind{bat.KBit, bat.KFlt, bat.KInt}, 3},
		{"if", []bat.Kind{bat.KBit, bat.KStr, bat.KStr}, 1},
		{"year", []bat.Kind{bat.KDate}, 1},
		{"month", []bat.Kind{bat.KDate}, 1},
		{"flt", []bat.Kind{bat.KInt}, 1},
		{"int", []bat.Kind{bat.KFlt}, 1},
		{"-", []bat.Kind{bat.KInt, bat.KFlt}, 2},
		{"*", []bat.Kind{bat.KFlt, bat.KFlt}, 3},
		{"+", []bat.Kind{bat.KInt, bat.KInt}, 3},
		{"/", []bat.Kind{bat.KFlt, bat.KFlt}, 3},
	}
	for _, s := range shapes {
		args, _ := multiplexCase(rng, s.kinds, s.cols, 9, 0)
		if typedMultiplex(&Ctx{}, s.fn, args, 9) == nil {
			t.Errorf("[%s](%s) fell back to the boxed loop", s.fn, describeArgs(args))
		}
	}
}

// FuzzMultiplex drives the parity check with arbitrary functions, kinds,
// shapes, sizes and view offsets; the seed corpus runs under go test.
func FuzzMultiplex(f *testing.F) {
	f.Add(uint8(0), uint8(0x34), uint8(1), int64(1), uint8(17), uint8(0))
	f.Add(uint8(5), uint8(0x76), uint8(3), int64(2), uint8(64), uint8(3))
	f.Add(uint8(9), uint8(0x63), uint8(7), int64(3), uint8(0), uint8(0))
	f.Add(uint8(14), uint8(0x33), uint8(2), int64(4), uint8(200), uint8(9))
	f.Add(uint8(20), uint8(0x27), uint8(1), int64(5), uint8(33), uint8(1))
	names := funcNames()
	f.Fuzz(func(t *testing.T, fnIdx, kindBits, cols uint8, seed int64, n, off uint8) {
		fn := names[int(fnIdx)%len(names)]
		as := arities(funcs[fn])
		arity := as[int(kindBits>>6)%len(as)]
		kinds := make([]bat.Kind, arity)
		for j := range kinds {
			// two kind bits per argument, rotated by argument position
			kinds[j] = testKinds[(int(kindBits>>(2*j))+j)%len(testKinds)]
		}
		rng := rand.New(rand.NewSource(seed))
		args, ok := multiplexCase(rng, kinds, uint(cols)&(1<<arity-1), int(n), int(off%8))
		if !ok {
			return
		}
		checkMultiplexParity(t, fn, args, int(n))
	})
}

// unionMapOracle is Union over a boxed head map: the parity reference for
// the key-rep Union.
func unionMapOracle(a, b *bat.BAT) *bat.BAT {
	seen := make(map[bat.Value]struct{}, a.Len()+b.Len())
	var heads, tails []bat.Value
	for _, x := range []*bat.BAT{a, b} {
		for i := 0; i < x.Len(); i++ {
			h := x.H.Get(i)
			if _, ok := seen[h]; ok {
				continue
			}
			seen[h] = struct{}{}
			heads = append(heads, h)
			tails = append(tails, x.T.Get(i))
		}
	}
	hk, tk := a.H.Kind(), a.T.Kind()
	if a.Len() == 0 {
		hk, tk = b.H.Kind(), b.T.Kind()
	}
	return bat.New(a.Name+".union", bat.FromValues(normValKind(hk), heads),
		bat.FromValues(normValKind(tk), tails), bat.HKey)
}

// TestUnionMatchesMapOracle: void and oid heads, duplicate heads across and
// within the sides, inexact (flt with NaN and −0, str) heads, heads of
// different kinds, mismatched tail kinds and empty sides.
func TestUnionMatchesMapOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	oids := func(v ...bat.OID) bat.Column { return bat.NewOIDCol(v) }
	ints := func(n int) bat.Column { return testColumn(rng, bat.KInt, n, 0) }
	cases := []struct {
		name string
		a, b *bat.BAT
	}{
		{"void/oid overlap", bat.New("a", bat.NewVoid(3, 4), ints(4), 0),
			bat.New("b", oids(5, 9, 5, 2, 6), ints(5), 0)},
		{"void/void", bat.New("a", bat.NewVoid(0, 3), ints(3), 0),
			bat.New("b", bat.NewVoid(2, 3), ints(3), 0)},
		{"dups within a", bat.New("a", oids(1, 1, 2), ints(3), 0),
			bat.New("b", oids(2, 3, 3), ints(3), 0)},
		{"empty a", bat.New("a", oids(), bat.NewFltCol(nil), 0),
			bat.New("b", oids(4, 4, 1), ints(3), 0)},
		{"empty b", bat.New("a", oids(4, 4, 1), ints(3), 0),
			bat.New("b", bat.NewVoid(0, 0), ints(0), 0)},
		{"both empty", bat.New("a", oids(), ints(0), 0), bat.New("b", oids(), ints(0), 0)},
		{"tail kinds differ", bat.New("a", oids(1, 2), ints(2), 0),
			bat.New("b", oids(2, 3), testColumn(rng, bat.KFlt, 2, 0), 0)},
		{"int vs oid heads", bat.New("a", bat.NewIntCol([]int64{1, 2}), ints(2), 0),
			bat.New("b", oids(1, 2, 2), ints(3), 0)},
		{"flt heads", bat.New("a", testColumn(rng, bat.KFlt, 30, 0), ints(30), 0),
			bat.New("b", testColumn(rng, bat.KFlt, 30, 4), ints(30), 0)},
		{"str heads", bat.New("a", testColumn(rng, bat.KStr, 20, 0), testColumn(rng, bat.KStr, 20, 0), 0),
			bat.New("b", testColumn(rng, bat.KStr, 25, 2), testColumn(rng, bat.KStr, 25, 0), 0)},
		{"date heads", bat.New("a", testColumn(rng, bat.KDate, 20, 0), ints(20), 0),
			bat.New("b", testColumn(rng, bat.KDate, 20, 0), ints(20), 0)},
	}
	for _, c := range cases {
		got := Union(&Ctx{}, c.a, c.b)
		want := unionMapOracle(c.a, c.b)
		if err := sameColumn(got.H, want.H); err != "" {
			t.Errorf("%s heads: %s", c.name, err)
		}
		if err := sameColumn(got.T, want.T); err != "" {
			t.Errorf("%s tails: %s", c.name, err)
		}
		if got.Props != want.Props {
			t.Errorf("%s props %v, want %v", c.name, got.Props, want.Props)
		}
	}
}

// TestMultiplexKindFromOperands: if(c, flt, int) is a flt column even when
// row 0 takes the int branch or there are no rows, on the aligned and the
// hash-matched path alike.
func TestMultiplexKindFromOperands(t *testing.T) {
	cond := bat.New("c", bat.NewOIDCol([]bat.OID{1, 2}), bat.NewBitCol([]bool{false, true}), 0)
	price := bat.New("p", bat.NewOIDCol([]bat.OID{2, 1}), bat.NewFltCol([]float64{2.5, 1.5}), 0)
	ctx := &Ctx{}
	out := Multiplex(ctx, "if", []Operand{BATArg(cond), BATArg(price), ConstArg(bat.I(0))})
	if ctx.LastAlgo() != "hash-multiplex" {
		t.Fatalf("algo %s", ctx.LastAlgo())
	}
	if out.T.Kind() != bat.KFlt || out.TailValue(0).F != 0 || out.TailValue(1).F != 2.5 {
		t.Fatalf("hash [if] = %s %v", out.T.Kind(), out.TailValues())
	}
	empty := bat.New("e", bat.NewVoid(0, 0), bat.NewBitCol(nil), 0)
	for _, fn := range []string{"if", "strstarts"} {
		args := []Operand{BATArg(empty), ConstArg(bat.F(1)), ConstArg(bat.I(0))}
		want := bat.KFlt
		if fn == "strstarts" {
			args, want = []Operand{BATArg(empty), ConstArg(bat.S("x"))}, bat.KBit
		}
		if k := Multiplex(nil, fn, args).T.Kind(); k != want {
			t.Errorf("empty [%s] is %s, want %s", fn, k, want)
		}
	}
}
