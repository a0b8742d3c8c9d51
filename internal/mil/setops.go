package mil

import (
	"sort"

	"repro/internal/bat"
)

// The MOA set operations work on sets of identified values, so the BAT-level
// set operations match elements on their identifier — the head column
// (Section 3.3: identifiers are unique within a value set).

// Union implements set union on identified value sets: all BUNs of a, plus
// the BUNs of b whose head does not occur in a. Duplicate heads within b
// itself are also collapsed (identifiers are unique within a set). The heads
// are deduplicated on their key reps through the Grouper, keeping first
// occurrences from a then b, and both columns are gathered at the kept
// positions.
func Union(ctx *Ctx, a, b *bat.BAT) *bat.BAT {
	ctx.chose("hash-union")
	p := ctx.pager()
	a.H.TouchAll(p)
	a.T.TouchAll(p)
	b.H.TouchAll(p)
	b.T.TouchAll(p)
	pa, pb := bat.UnionFirstRows(a.H, b.H)
	hk := a.H.Kind()
	tk := a.T.Kind()
	if a.Len() == 0 {
		hk, tk = b.H.Kind(), b.T.Kind()
	}
	return bat.New(a.Name+".union", bat.GatherConcat(normValKind(hk), a.H, pa, b.H, pb),
		bat.GatherConcat(normValKind(tk), a.T, pa, b.T, pb), bat.HKey)
}

// Diff implements set difference on identified value sets: the BUNs of a
// whose head does not occur in b. It is the anti-probe of the semijoin:
// the same bucket+link accelerator on b's head, keeping the misses.
func Diff(ctx *Ctx, a, b *bat.BAT) *bat.BAT {
	ctx.chose("hash-diff")
	p := ctx.pager()
	b.H.TouchAll(p)
	a.H.TouchAll(p)
	n := a.Len()
	idx := b.HeadHashSched(ctx.sched(b.Len()))
	if pr, ok := idx.NewProbe(a.H); ok {
		pos := parallelCollect32(ctx, n, n,
			func(lo, hi int, out []int32) []int32 {
				return idx.FilterRange(pr, lo, hi, false, out)
			})
		return gatherPositions(ctx, a.Name+".diff", a, pos)
	}
	var pos []int32
	for i := 0; i < n; i++ {
		if len(idx.Lookup(a.H.Get(i))) == 0 {
			pos = append(pos, int32(i))
		}
	}
	return gatherPositions(ctx, a.Name+".diff", a, pos)
}

// Intersect implements set intersection on identified value sets; on the
// flattened representation it coincides with the semijoin (the "beneficial
// effect" of Section 4.3.2 applies to all nested set operations).
func Intersect(ctx *Ctx, a, b *bat.BAT) *bat.BAT {
	out := Semijoin(ctx, a, b)
	if ctx != nil {
		ctx.lastAlgo += " (intersect)"
	}
	return out
}

// SortTail reorders b on its tail values, ascending or descending. It backs
// MOA's sort[expr] operator (needed by the TPC-D top-N queries).
func SortTail(ctx *Ctx, b *bat.BAT, desc bool) *bat.BAT {
	ctx.chose("sort")
	p := ctx.pager()
	b.T.TouchAll(p)
	b.H.TouchAll(p)
	n := b.Len()
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	valueLess := tailLess(b.T)
	less := func(i, j int) bool { return valueLess(perm[i], perm[j]) }
	if desc {
		less = func(i, j int) bool { return valueLess(perm[j], perm[i]) }
	}
	sort.SliceStable(perm, less)
	out := bat.New(b.Name+".sort", bat.Gather(b.H, perm), bat.Gather(b.T, perm), 0)
	if !desc {
		out.Props |= bat.TOrdered
	}
	out.Props |= b.Props & (bat.HKey | bat.TKey)
	return out
}

func tailLess(t bat.Column) func(i, j int) bool {
	switch c := t.(type) {
	case *bat.IntCol:
		return func(i, j int) bool { return c.V[i] < c.V[j] }
	case *bat.FltCol:
		return func(i, j int) bool { return c.V[i] < c.V[j] }
	case *bat.OIDCol:
		return func(i, j int) bool { return c.V[i] < c.V[j] }
	case *bat.DateCol:
		return func(i, j int) bool { return c.V[i] < c.V[j] }
	case *bat.ChrCol:
		return func(i, j int) bool { return c.V[i] < c.V[j] }
	case *bat.StrCol:
		return func(i, j int) bool { return c.At(i) < c.At(j) }
	default:
		return func(i, j int) bool { return bat.Less(t.Get(i), t.Get(j)) }
	}
}
