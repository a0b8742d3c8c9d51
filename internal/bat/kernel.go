package bat

import "math"

// This file is the typed kernel layer: allocation-free primitives that let
// the MIL operators run as tight array loops over the columns' backing
// slices instead of detouring through boxed Values — the execution style the
// paper attributes to the flattened binary algebra ("simple operations on
// arrays of simple fixed-size values", Section 5).
//
// The common currency is the key representation: every column value is
// condensed into one uint64 *rep*. For fixed-width kinds the rep is the
// value itself (rep equality ⇔ value equality; Exact). For strings and
// floats the rep is a hash resp. the bit pattern, and an equality verifier
// on the original column settles collisions (map-key semantics: NaN never
// equals itself, -0 equals +0).

const fibMul = 0x9E3779B97F4A7C15

// fibHash is Fibonacci multiplicative hashing of a 64-bit key to 32 bits.
func fibHash(x uint64) uint32 { return uint32((x * fibMul) >> 32) }

// hashString is 64-bit FNV-1a.
func hashString(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// Mix combines two key reps into a composite rep (group refinement, BUN
// dedup). Mixing is not injective, so composite keys always need verifying.
func Mix(a, b uint64) uint64 {
	return a*0xBF58476D1CE4E5B9 ^ b*0x94D049BB133111EB
}

func nextPow2(n int) int {
	s := 1
	for s < n {
		s <<= 1
	}
	return s
}

// KeyEq verifies that the rows a and b hold equal key values; it is consulted
// by the hash kernels when rep equality alone is not conclusive.
type KeyEq interface {
	KeyEqual(a, b int32) bool
}

// KeyRep is the key representation of one column: one uint64 per row.
type KeyRep struct {
	Rep   []uint64
	Exact bool // rep equality ⇔ value equality
	col   Column
}

// NewKeyRep builds the key representation of col. It reports false for
// column implementations without a typed backing (none in this package).
func NewKeyRep(c Column) (KeyRep, bool) { return NewKeyRepP(c, 1) }

// NewKeyRepP builds the key representation of col, filling the rep vector on
// up to workers goroutines (the fill is embarrassingly parallel; every
// worker count yields the identical vector).
func NewKeyRepP(c Column, workers int) (KeyRep, bool) {
	exact, ok := repExactness(c)
	if !ok {
		return KeyRep{}, false
	}
	n := c.Len()
	rep := make([]uint64, n)
	if workers <= 1 || n < radixBuildMinRows {
		fillKeyReps(c, rep, 0, n)
	} else {
		bounds := splitRange(n, workers)
		parallelDo(len(bounds), func(w int) {
			fillKeyReps(c, rep, bounds[w][0], bounds[w][1])
		})
	}
	return KeyRep{Rep: rep, Exact: exact, col: c}, true
}

// repExactness reports whether rep equality is conclusive for col's kind,
// and whether the kind has a key representation at all.
func repExactness(c Column) (exact, ok bool) {
	switch c.(type) {
	case *VoidCol, *OIDCol, *IntCol, *DateCol, *ChrCol, *BitCol:
		return true, true
	case *FltCol, *StrCol:
		return false, true
	}
	return false, false
}

// fillKeyReps computes rep[i] for rows [lo, hi) of c.
func fillKeyReps(c Column, rep []uint64, lo, hi int) {
	switch cc := c.(type) {
	case *VoidCol:
		for i := lo; i < hi; i++ {
			rep[i] = uint64(cc.Seq) + uint64(i)
		}
	case *OIDCol:
		for i := lo; i < hi; i++ {
			rep[i] = uint64(cc.V[i])
		}
	case *IntCol:
		for i := lo; i < hi; i++ {
			rep[i] = uint64(cc.V[i])
		}
	case *DateCol:
		for i := lo; i < hi; i++ {
			rep[i] = uint64(cc.V[i])
		}
	case *ChrCol:
		for i := lo; i < hi; i++ {
			rep[i] = uint64(cc.V[i])
		}
	case *BitCol:
		for i := lo; i < hi; i++ {
			if cc.V[i] {
				rep[i] = 1
			} else {
				rep[i] = 0
			}
		}
	case *FltCol:
		for i := lo; i < hi; i++ {
			v := cc.V[i]
			if v == 0 {
				v = 0 // -0 and +0 are one key
			}
			rep[i] = math.Float64bits(v)
		}
	case *StrCol:
		for i := lo; i < hi; i++ {
			rep[i] = hashString(cc.At(i))
		}
	}
}

// RowRep returns a per-row key-rep accessor over c — the vector-granular
// counterpart of NewKeyRep: rep(i) equals NewKeyRep(c).Rep[i] bit for bit,
// without materializing the O(n) vector. eq settles rep collisions and is
// nil when rep equality is conclusive; ok is false for column
// implementations without a key representation (none in this package).
func RowRep(c Column) (rep func(i int32) uint64, eq KeyEq, ok bool) {
	exact, ok := repExactness(c)
	if !ok {
		return nil, nil, false
	}
	if !exact {
		// KeyEqual on inexact kinds reads the column directly; no Rep
		// vector is needed.
		eq = KeyRep{Exact: false, col: c}
	}
	switch cc := c.(type) {
	case *VoidCol:
		rep = func(i int32) uint64 { return uint64(cc.Seq) + uint64(i) }
	case *OIDCol:
		rep = func(i int32) uint64 { return uint64(cc.V[i]) }
	case *IntCol:
		rep = func(i int32) uint64 { return uint64(cc.V[i]) }
	case *DateCol:
		rep = func(i int32) uint64 { return uint64(cc.V[i]) }
	case *ChrCol:
		rep = func(i int32) uint64 { return uint64(cc.V[i]) }
	case *BitCol:
		rep = func(i int32) uint64 {
			if cc.V[i] {
				return 1
			}
			return 0
		}
	case *FltCol:
		rep = func(i int32) uint64 {
			v := cc.V[i]
			if v == 0 {
				v = 0 // -0 and +0 are one key
			}
			return math.Float64bits(v)
		}
	case *StrCol:
		rep = func(i int32) uint64 { return hashString(cc.At(int(i))) }
	default:
		return nil, nil, false
	}
	return rep, eq, true
}

// KeyEqual implements KeyEq on a single column under map-key semantics.
func (k KeyRep) KeyEqual(a, b int32) bool {
	if k.Exact {
		return k.Rep[a] == k.Rep[b]
	}
	switch c := k.col.(type) {
	case *FltCol:
		return c.V[a] == c.V[b]
	case *StrCol:
		return c.At(int(a)) == c.At(int(b))
	}
	return k.col.Get(int(a)) == k.col.Get(int(b))
}

// Verifier returns k as a KeyEq, or nil when rep equality is conclusive.
func (k KeyRep) Verifier() KeyEq {
	if k.Exact {
		return nil
	}
	return k
}

// PairEq verifies composite (A,B) keys row against row. Only *PairEq
// implements KeyEq, so a verifier is built once per operator (&PairEq{…})
// rather than boxed into the interface on every Grouper.Slot call.
type PairEq struct{ A, B KeyRep }

// KeyEqual implements KeyEq.
func (p *PairEq) KeyEqual(a, b int32) bool {
	return p.A.KeyEqual(a, b) && p.B.KeyEqual(a, b)
}

// normKind folds void into oid: void entries materialize as oids, so the two
// kinds share one key space.
func normKind(k Kind) Kind {
	if k == KVoid {
		return KOID
	}
	return k
}

// crossEq returns a verifier of value equality between row i of a and row j
// of b (columns of the same kind), or nil when rep equality is conclusive.
func crossEq(a, b Column) func(i, j int32) bool {
	switch ca := a.(type) {
	case *FltCol:
		if cb, ok := b.(*FltCol); ok {
			return func(i, j int32) bool { return ca.V[i] == cb.V[j] }
		}
	case *StrCol:
		if cb, ok := b.(*StrCol); ok {
			return func(i, j int32) bool { return ca.At(int(i)) == cb.At(int(j)) }
		}
	}
	return func(i, j int32) bool { return a.Get(int(i)) == b.Get(int(j)) }
}

// ---------------------------------------------------------------------------
// Grouper: incremental distinct-key slot assignment (group, unique,
// aggregation). Slots are handed out in first-occurrence order, so slot ids
// coincide with the group oids the boxed implementations produced.

// Grouper assigns dense slot ids to distinct key reps via an open hash table
// with bucket+link chaining over the discovered slots. The table is sized to
// the groups found so far, not to the rows scanned: it starts small and
// doubles its bucket array once slots outnumber buckets, rehashing from the
// stored reps. Slot ids depend only on first-occurrence order, so growth
// never renumbers a group.
type Grouper struct {
	bucket []int32 // slot chain heads per hash bucket, -1 empty
	mask   uint32
	rep    []uint64 // rep per slot
	rows   []int32  // first-occurrence row per slot
	link   []int32  // next slot in bucket chain
}

// grouperInitBuckets caps a Grouper's initial bucket array: grouped
// aggregates over many rows usually find few groups, and growth is
// amortized O(1) per slot when they do not.
const grouperInitBuckets = 64

// NewGrouper returns a Grouper for at most hint distinct keys (callers pass
// the row count, an upper bound). The table starts at min(hint, 64)
// buckets and grows with the slots actually handed out.
func NewGrouper(hint int) *Grouper {
	sz := nextPow2(min(max(hint, 1), grouperInitBuckets))
	g := &Grouper{
		bucket: make([]int32, sz),
		mask:   uint32(sz - 1),
	}
	for i := range g.bucket {
		g.bucket[i] = -1
	}
	return g
}

// Len reports the number of slots handed out.
func (g *Grouper) Len() int { return len(g.rows) }

// Rows returns the first-occurrence row of every slot, in slot order.
func (g *Grouper) Rows() []int32 { return g.rows }

// Slot returns the slot of the key with representation rep occurring at row,
// creating it if new (second result). eq settles rep collisions; it must be
// non-nil whenever rep equality does not imply key equality (inexact reps
// and all composite Mix keys). Pass eq as an interface value converted once
// outside the row loop: converting a struct per call allocates.
func (g *Grouper) Slot(rep uint64, row int32, eq KeyEq) (int32, bool) {
	h := fibHash(rep) & g.mask
	for s := g.bucket[h]; s >= 0; s = g.link[s] {
		if g.rep[s] == rep && (eq == nil || eq.KeyEqual(g.rows[s], row)) {
			return s, false
		}
	}
	s := int32(len(g.rows))
	g.rep = append(g.rep, rep)
	g.rows = append(g.rows, row)
	g.link = append(g.link, g.bucket[h])
	g.bucket[h] = s
	if len(g.rows) > len(g.bucket) {
		g.grow()
	}
	return s, true
}

// grow doubles the bucket array and relinks every slot from its stored rep.
// Chains are rebuilt in ascending slot order; a chain's order only affects
// probe length, never which slot a key resolves to.
func (g *Grouper) grow() {
	sz := 2 * len(g.bucket)
	g.bucket = make([]int32, sz)
	g.mask = uint32(sz - 1)
	for i := range g.bucket {
		g.bucket[i] = -1
	}
	for s, r := range g.rep {
		h := fibHash(r) & g.mask
		g.link[s] = g.bucket[h]
		g.bucket[h] = int32(s)
	}
}

// UnionFirstRows returns the rows of a, then of b, whose value has not
// occurred earlier in a followed by b: the first occurrences of each
// distinct key over the concatenation, under the same map-key semantics as
// the boxed Values (void and oid share a key space; values of other
// different kinds never match).
func UnionFirstRows(a, b Column) (pa, pb []int32) {
	ra, okA := NewKeyRep(a)
	rb, okB := NewKeyRep(b)
	if !okA || !okB {
		panic("bat: union over a column without a key representation")
	}
	na := int32(a.Len())
	var eq KeyEq
	if !ra.Exact || !rb.Exact || normKind(a.Kind()) != normKind(b.Kind()) {
		eq = &unionEq{a: a, b: b, na: na}
	}
	g := NewGrouper(a.Len() + b.Len())
	for i := int32(0); i < na; i++ {
		if _, fresh := g.Slot(ra.Rep[i], i, eq); fresh {
			pa = append(pa, i)
		}
	}
	for j := int32(0); j < int32(b.Len()); j++ {
		if _, fresh := g.Slot(rb.Rep[j], na+j, eq); fresh {
			pb = append(pb, j)
		}
	}
	return pa, pb
}

// unionEq verifies key equality of two rows of the concatenation a ++ b.
// Rows of different kinds compare unequal through the boxed fallback.
type unionEq struct {
	a, b Column
	na   int32
}

// KeyEqual implements KeyEq.
func (u *unionEq) KeyEqual(x, y int32) bool {
	cx, cy := u.a, u.a
	if x >= u.na {
		cx, x = u.b, x-u.na
	}
	if y >= u.na {
		cy, y = u.b, y-u.na
	}
	switch ca := cx.(type) {
	case *FltCol:
		if cb, ok := cy.(*FltCol); ok {
			return ca.V[x] == cb.V[y]
		}
	case *StrCol:
		if cb, ok := cy.(*StrCol); ok {
			return ca.At(int(x)) == cb.At(int(y))
		}
	}
	return cx.Get(int(x)) == cy.Get(int(y))
}

// ---------------------------------------------------------------------------
// Merge-join kernel: unboxed two-cursor merge of a sorted tail against a
// sorted head, one generic instantiation per fixed-width element type.

func mergeJoinTyped[E interface {
	~uint8 | ~int32 | ~uint32 | ~int64 | ~float64
}](lt, rh []E, lpos, rpos []int32) ([]int32, []int32) {
	i, j := 0, 0
	nl, nr := len(lt), len(rh)
	for i < nl && j < nr {
		x := lt[i]
		switch {
		case x < rh[j]:
			i++
		case x > rh[j]:
			j++
		default:
			for j2 := j; j2 < nr && rh[j2] == x; j2++ {
				lpos = append(lpos, int32(i))
				rpos = append(rpos, int32(j2))
			}
			i++
		}
	}
	return lpos, rpos
}

// MergeJoinPositions merges the (ascending) column lt against the
// (ascending) column rh, appending every matching position pair to
// lpos/rpos in left order. It reports false when the column pair has no
// typed path, leaving the buffers untouched.
func MergeJoinPositions(lt, rh Column, lpos, rpos []int32) ([]int32, []int32, bool) {
	switch a := lt.(type) {
	case *OIDCol:
		if b, ok := rh.(*OIDCol); ok {
			lpos, rpos = mergeJoinTyped(a.V, b.V, lpos, rpos)
			return lpos, rpos, true
		}
	case *IntCol:
		if b, ok := rh.(*IntCol); ok {
			lpos, rpos = mergeJoinTyped(a.V, b.V, lpos, rpos)
			return lpos, rpos, true
		}
	case *FltCol:
		if b, ok := rh.(*FltCol); ok {
			lpos, rpos = mergeJoinTyped(a.V, b.V, lpos, rpos)
			return lpos, rpos, true
		}
	case *DateCol:
		if b, ok := rh.(*DateCol); ok {
			lpos, rpos = mergeJoinTyped(a.V, b.V, lpos, rpos)
			return lpos, rpos, true
		}
	case *ChrCol:
		if b, ok := rh.(*ChrCol); ok {
			lpos, rpos = mergeJoinTyped(a.V, b.V, lpos, rpos)
			return lpos, rpos, true
		}
	case *StrCol:
		if b, ok := rh.(*StrCol); ok {
			i, j := 0, 0
			nl, nr := a.Len(), b.Len()
			for i < nl && j < nr {
				x := a.At(i)
				switch {
				case x < b.At(j):
					i++
				case x > b.At(j):
					j++
				default:
					for j2 := j; j2 < nr && b.At(j2) == x; j2++ {
						lpos = append(lpos, int32(i))
						rpos = append(rpos, int32(j2))
					}
					i++
				}
			}
			return lpos, rpos, true
		}
	}
	return lpos, rpos, false
}
