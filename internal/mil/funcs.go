package mil

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/bat"
)

// Func is a scalar function usable inside the multiplex constructor [f]
// (Section 4.2: "allows bulk application of any algebraic operation on all
// tail values of a BAT") and inside selection predicates.
type Func struct {
	Name  string
	Arity int // -1 = variadic
	Apply func(args []bat.Value) bat.Value
}

var funcs = map[string]*Func{}

// RegisterFunc adds a scalar function to the multiplex registry; it is the
// Go analogue of Monet's run-time operator extensibility (Section 2,
// "algebra commands and operators can be added"). The aligned multiplex
// selects its typed kernels and result kinds by the built-in names, so a
// new function needs a new name.
func RegisterFunc(f *Func) { funcs[f.Name] = f }

// LookupFunc finds a registered scalar function.
func LookupFunc(name string) (*Func, bool) {
	f, ok := funcs[name]
	return f, ok
}

func numeric2(name string, fi func(a, b int64) int64, ff func(a, b float64) float64) *Func {
	return &Func{Name: name, Arity: 2, Apply: func(a []bat.Value) bat.Value {
		x, y := a[0], a[1]
		if x.K == bat.KInt && y.K == bat.KInt {
			return bat.I(fi(x.I, y.I))
		}
		return bat.F(ff(x.AsFloat(), y.AsFloat()))
	}}
}

func comparison(name string, ok func(c int) bool) *Func {
	return &Func{Name: name, Arity: 2, Apply: func(a []bat.Value) bat.Value {
		return bat.B(ok(bat.Compare(a[0], a[1])))
	}}
}

func init() {
	RegisterFunc(numeric2("+", func(a, b int64) int64 { return a + b }, func(a, b float64) float64 { return a + b }))
	RegisterFunc(numeric2("-", func(a, b int64) int64 { return a - b }, func(a, b float64) float64 { return a - b }))
	RegisterFunc(numeric2("*", func(a, b int64) int64 { return a * b }, func(a, b float64) float64 { return a * b }))
	RegisterFunc(&Func{Name: "/", Arity: 2, Apply: func(a []bat.Value) bat.Value {
		d := a[1].AsFloat()
		if d == 0 {
			return bat.F(0)
		}
		return bat.F(a[0].AsFloat() / d)
	}})
	RegisterFunc(comparison("=", func(c int) bool { return c == 0 }))
	RegisterFunc(comparison("!=", func(c int) bool { return c != 0 }))
	RegisterFunc(comparison("<", func(c int) bool { return c < 0 }))
	RegisterFunc(comparison("<=", func(c int) bool { return c <= 0 }))
	RegisterFunc(comparison(">", func(c int) bool { return c > 0 }))
	RegisterFunc(comparison(">=", func(c int) bool { return c >= 0 }))
	RegisterFunc(&Func{Name: "and", Arity: -1, Apply: func(a []bat.Value) bat.Value {
		for _, v := range a {
			if !v.Bool() {
				return bat.B(false)
			}
		}
		return bat.B(true)
	}})
	RegisterFunc(&Func{Name: "or", Arity: -1, Apply: func(a []bat.Value) bat.Value {
		for _, v := range a {
			if v.Bool() {
				return bat.B(true)
			}
		}
		return bat.B(false)
	}})
	RegisterFunc(&Func{Name: "not", Arity: 1, Apply: func(a []bat.Value) bat.Value {
		return bat.B(!a[0].Bool())
	}})
	RegisterFunc(&Func{Name: "if", Arity: 3, Apply: func(a []bat.Value) bat.Value {
		if a[0].Bool() {
			return a[1]
		}
		return a[2]
	}})
	RegisterFunc(&Func{Name: "year", Arity: 1, Apply: func(a []bat.Value) bat.Value {
		return bat.I(int64(dayToTime(a[0].I).Year()))
	}})
	RegisterFunc(&Func{Name: "month", Arity: 1, Apply: func(a []bat.Value) bat.Value {
		return bat.I(int64(dayToTime(a[0].I).Month()))
	}})
	RegisterFunc(&Func{Name: "adddays", Arity: 2, Apply: func(a []bat.Value) bat.Value {
		return bat.D(int32(a[0].I + a[1].I))
	}})
	RegisterFunc(&Func{Name: "addmonths", Arity: 2, Apply: func(a []bat.Value) bat.Value {
		t := dayToTime(a[0].I).AddDate(0, int(a[1].I), 0)
		return bat.D(int32(t.Unix() / 86400))
	}})
	RegisterFunc(&Func{Name: "strstarts", Arity: 2, Apply: func(a []bat.Value) bat.Value {
		return bat.B(strings.HasPrefix(a[0].S, a[1].S))
	}})
	RegisterFunc(&Func{Name: "strcontains", Arity: 2, Apply: func(a []bat.Value) bat.Value {
		return bat.B(strings.Contains(a[0].S, a[1].S))
	}})
	RegisterFunc(&Func{Name: "strends", Arity: 2, Apply: func(a []bat.Value) bat.Value {
		return bat.B(strings.HasSuffix(a[0].S, a[1].S))
	}})
	RegisterFunc(&Func{Name: "length", Arity: 1, Apply: func(a []bat.Value) bat.Value {
		return bat.I(int64(len(a[0].S)))
	}})
	RegisterFunc(&Func{Name: "neg", Arity: 1, Apply: func(a []bat.Value) bat.Value {
		if a[0].K == bat.KInt {
			return bat.I(-a[0].I)
		}
		return bat.F(-a[0].AsFloat())
	}})
	RegisterFunc(&Func{Name: "flt", Arity: 1, Apply: func(a []bat.Value) bat.Value {
		return bat.F(a[0].AsFloat())
	}})
	RegisterFunc(&Func{Name: "int", Arity: 1, Apply: func(a []bat.Value) bat.Value {
		return bat.I(int64(a[0].AsFloat()))
	}})
	// snd projects its second argument; multiplexing [snd](AB, const) lifts
	// a constant into a value set synced with AB (used by the rewriter to
	// materialize constant-valued projection fields).
	RegisterFunc(&Func{Name: "snd", Arity: 2, Apply: func(a []bat.Value) bat.Value {
		return a[1]
	}})
}

func dayToTime(days int64) time.Time {
	return time.Unix(days*86400, 0).UTC()
}

// CallFunc applies a registered scalar function, panicking on unknown names
// or arity mismatch: the rewriter type-checks calls before emitting them, so
// a failure here is a translator bug, not user error.
func CallFunc(name string, args []bat.Value) bat.Value {
	f, ok := funcs[name]
	if !ok {
		panic(fmt.Sprintf("mil: unknown function %q", name))
	}
	if f.Arity >= 0 && f.Arity != len(args) {
		panic(fmt.Sprintf("mil: function %q wants %d args, got %d", name, f.Arity, len(args)))
	}
	return f.Apply(args)
}
