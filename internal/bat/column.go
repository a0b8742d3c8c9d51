package bat

import (
	"repro/internal/storage"
)

// Columns are transient (heap 0, never faulting) until Persist assigns them
// a real heap id: only the loader persists columns, so fault accounting
// covers exactly the base data, matching the paper's measurements on
// memory-mapped persistent BATs.

// Column is one side (head or tail) of a BAT: a typed, dense array of
// values. Concrete implementations expose their backing slices for the
// operators' fast paths; Get is the generic boxed accessor.
type Column interface {
	// Kind reports the column's atomic type.
	Kind() Kind
	// Len reports the number of entries.
	Len() int
	// Get returns the boxed value at position i.
	Get(i int) Value
	// Heap identifies the column's BUN heap for fault accounting.
	Heap() storage.HeapID
	// TouchAt records a random access to entry i against the pager.
	TouchAt(p *storage.Tracker, i int)
	// TouchPositions records random accesses to the entries pos against the
	// pager: the same touches as TouchAt per position in list order, which
	// an order-free pool settles once per distinct page (see
	// storage.Tracker.TouchEntries).
	TouchPositions(p *storage.Tracker, pos []int32)
	// TouchRange records a sequential access to entries [i, i+n) against the
	// pager, accounting one page span instead of n single touches.
	TouchRange(p *storage.Tracker, i, n int)
	// TouchAll records a full sequential scan against the pager.
	TouchAll(p *storage.Tracker)
	// ByteSize reports the logical memory footprint in bytes.
	ByteSize() int64
	// OwnedBytes reports the bytes of backing storage this column owns:
	// equal to ByteSize for materialized columns, zero for views, whose
	// backing was charged once when its owning column was created. Memory
	// accounting sums owned bytes so view-heavy plans do not over-report
	// (ROADMAP: view-aware memory accounting).
	OwnedBytes() int64
	// Persist assigns the column a persistent heap id so that accesses to
	// it are fault-accounted. Idempotent; transient columns never fault.
	Persist()
}

// ---------------------------------------------------------------------------
// void: dense ascending oid sequence, zero storage (paper Section 5.2,
// footnote 2: "BATs that have the zero-space type void in one column").

// VoidCol is a virtual column holding the dense sequence Seq, Seq+1, ...
type VoidCol struct {
	Seq OID
	N   int
}

// NewVoid returns a void column of n entries starting at seq.
func NewVoid(seq OID, n int) *VoidCol { return &VoidCol{Seq: seq, N: n} }

// Kind implements Column.
func (c *VoidCol) Kind() Kind { return KVoid }

// Len implements Column.
func (c *VoidCol) Len() int { return c.N }

// Get implements Column; void entries materialize as oids.
func (c *VoidCol) Get(i int) Value { return O(c.Seq + OID(i)) }

// Heap implements Column; void columns occupy no storage.
func (c *VoidCol) Heap() storage.HeapID { return 0 }

// TouchAt implements Column; void columns never fault.
func (c *VoidCol) TouchAt(p *storage.Tracker, i int) {}

// TouchPositions implements Column; void columns never fault.
func (c *VoidCol) TouchPositions(p *storage.Tracker, pos []int32) {}

// TouchRange implements Column; void columns never fault.
func (c *VoidCol) TouchRange(p *storage.Tracker, i, n int) {}

// TouchAll implements Column; void columns never fault.
func (c *VoidCol) TouchAll(p *storage.Tracker) {}

// ByteSize implements Column.
func (c *VoidCol) ByteSize() int64 { return 0 }

// ---------------------------------------------------------------------------
// fixed-width columns

// OIDCol is a column of object identifiers.
type OIDCol struct {
	V    []OID
	heap storage.HeapID
	off  int            // heap entry offset of V[0] (non-zero for views)
	view bool           // shares another column's backing (see SliceView)
	hint storage.Hinter // mapping advice sink for heap-backed columns (heapcol.go)
}

// NewOIDCol wraps a slice of oids as a column.
func NewOIDCol(v []OID) *OIDCol { return &OIDCol{V: v} }

// Kind implements Column.
func (c *OIDCol) Kind() Kind { return KOID }

// Len implements Column.
func (c *OIDCol) Len() int { return len(c.V) }

// Get implements Column.
func (c *OIDCol) Get(i int) Value { return O(c.V[i]) }

// Heap implements Column.
func (c *OIDCol) Heap() storage.HeapID { return c.heap }

// TouchAt implements Column.
func (c *OIDCol) TouchAt(p *storage.Tracker, i int) { p.Touch(c.heap, int64(c.off+i)*4) }

// TouchPositions implements Column.
func (c *OIDCol) TouchPositions(p *storage.Tracker, pos []int32) {
	p.TouchEntries(c.heap, int64(c.off)*4, 4, pos)
}

// TouchRange implements Column; the span is also forwarded to the mapping
// hint (WillNeed) when the column is heap-backed.
func (c *OIDCol) TouchRange(p *storage.Tracker, i, n int) {
	adviseSpan(c.hint, storage.AdviceWillNeed, int64(c.off+i)*4, int64(n)*4)
	p.TouchRange(c.heap, int64(c.off+i)*4, int64(n)*4)
}

// TouchAll implements Column; a full scan advises Sequential instead of
// WillNeed so the pager reads ahead and drops pages behind the cursor.
func (c *OIDCol) TouchAll(p *storage.Tracker) {
	adviseSpan(c.hint, storage.AdviceSequential, int64(c.off)*4, int64(len(c.V))*4)
	p.TouchRange(c.heap, int64(c.off)*4, int64(len(c.V))*4)
}

// ByteSize implements Column.
func (c *OIDCol) ByteSize() int64 { return int64(len(c.V)) * 4 }

// IntCol is a column of integers.
type IntCol struct {
	V    []int64
	heap storage.HeapID
	off  int            // heap entry offset of V[0] (non-zero for views)
	view bool           // shares another column's backing (see SliceView)
	hint storage.Hinter // mapping advice sink for heap-backed columns (heapcol.go)
}

// NewIntCol wraps a slice of integers as a column.
func NewIntCol(v []int64) *IntCol { return &IntCol{V: v} }

// Kind implements Column.
func (c *IntCol) Kind() Kind { return KInt }

// Len implements Column.
func (c *IntCol) Len() int { return len(c.V) }

// Get implements Column.
func (c *IntCol) Get(i int) Value { return I(c.V[i]) }

// Heap implements Column.
func (c *IntCol) Heap() storage.HeapID { return c.heap }

// TouchAt implements Column; entries are 8 bytes wide, matching ByteSize.
func (c *IntCol) TouchAt(p *storage.Tracker, i int) { p.Touch(c.heap, int64(c.off+i)*8) }

// TouchPositions implements Column.
func (c *IntCol) TouchPositions(p *storage.Tracker, pos []int32) {
	p.TouchEntries(c.heap, int64(c.off)*8, 8, pos)
}

// TouchRange implements Column; heap-backed columns advise WillNeed.
func (c *IntCol) TouchRange(p *storage.Tracker, i, n int) {
	adviseSpan(c.hint, storage.AdviceWillNeed, int64(c.off+i)*8, int64(n)*8)
	p.TouchRange(c.heap, int64(c.off+i)*8, int64(n)*8)
}

// TouchAll implements Column; full scans advise Sequential.
func (c *IntCol) TouchAll(p *storage.Tracker) {
	adviseSpan(c.hint, storage.AdviceSequential, int64(c.off)*8, int64(len(c.V))*8)
	p.TouchRange(c.heap, int64(c.off)*8, int64(len(c.V))*8)
}

// ByteSize implements Column.
func (c *IntCol) ByteSize() int64 { return int64(len(c.V)) * 8 }

// FltCol is a column of floats.
type FltCol struct {
	V    []float64
	heap storage.HeapID
	off  int            // heap entry offset of V[0] (non-zero for views)
	view bool           // shares another column's backing (see SliceView)
	hint storage.Hinter // mapping advice sink for heap-backed columns (heapcol.go)
}

// NewFltCol wraps a slice of floats as a column.
func NewFltCol(v []float64) *FltCol { return &FltCol{V: v} }

// Kind implements Column.
func (c *FltCol) Kind() Kind { return KFlt }

// Len implements Column.
func (c *FltCol) Len() int { return len(c.V) }

// Get implements Column.
func (c *FltCol) Get(i int) Value { return F(c.V[i]) }

// Heap implements Column.
func (c *FltCol) Heap() storage.HeapID { return c.heap }

// TouchAt implements Column.
func (c *FltCol) TouchAt(p *storage.Tracker, i int) { p.Touch(c.heap, int64(c.off+i)*8) }

// TouchPositions implements Column.
func (c *FltCol) TouchPositions(p *storage.Tracker, pos []int32) {
	p.TouchEntries(c.heap, int64(c.off)*8, 8, pos)
}

// TouchRange implements Column; heap-backed columns advise WillNeed.
func (c *FltCol) TouchRange(p *storage.Tracker, i, n int) {
	adviseSpan(c.hint, storage.AdviceWillNeed, int64(c.off+i)*8, int64(n)*8)
	p.TouchRange(c.heap, int64(c.off+i)*8, int64(n)*8)
}

// TouchAll implements Column; full scans advise Sequential.
func (c *FltCol) TouchAll(p *storage.Tracker) {
	adviseSpan(c.hint, storage.AdviceSequential, int64(c.off)*8, int64(len(c.V))*8)
	p.TouchRange(c.heap, int64(c.off)*8, int64(len(c.V))*8)
}

// ByteSize implements Column.
func (c *FltCol) ByteSize() int64 { return int64(len(c.V)) * 8 }

// ChrCol is a column of single characters.
type ChrCol struct {
	V    []byte
	heap storage.HeapID
	off  int            // heap entry offset of V[0] (non-zero for views)
	view bool           // shares another column's backing (see SliceView)
	hint storage.Hinter // mapping advice sink for heap-backed columns (heapcol.go)
}

// NewChrCol wraps a byte slice as a character column.
func NewChrCol(v []byte) *ChrCol { return &ChrCol{V: v} }

// Kind implements Column.
func (c *ChrCol) Kind() Kind { return KChr }

// Len implements Column.
func (c *ChrCol) Len() int { return len(c.V) }

// Get implements Column.
func (c *ChrCol) Get(i int) Value { return C(c.V[i]) }

// Heap implements Column.
func (c *ChrCol) Heap() storage.HeapID { return c.heap }

// TouchAt implements Column.
func (c *ChrCol) TouchAt(p *storage.Tracker, i int) { p.Touch(c.heap, int64(c.off+i)) }

// TouchPositions implements Column.
func (c *ChrCol) TouchPositions(p *storage.Tracker, pos []int32) {
	p.TouchEntries(c.heap, int64(c.off), 1, pos)
}

// TouchRange implements Column; heap-backed columns advise WillNeed.
func (c *ChrCol) TouchRange(p *storage.Tracker, i, n int) {
	adviseSpan(c.hint, storage.AdviceWillNeed, int64(c.off+i), int64(n))
	p.TouchRange(c.heap, int64(c.off+i), int64(n))
}

// TouchAll implements Column; full scans advise Sequential.
func (c *ChrCol) TouchAll(p *storage.Tracker) {
	adviseSpan(c.hint, storage.AdviceSequential, int64(c.off), int64(len(c.V)))
	p.TouchRange(c.heap, int64(c.off), int64(len(c.V)))
}

// ByteSize implements Column.
func (c *ChrCol) ByteSize() int64 { return int64(len(c.V)) }

// BitCol is a column of booleans.
type BitCol struct {
	V    []bool
	heap storage.HeapID
	off  int            // heap entry offset of V[0] (non-zero for views)
	view bool           // shares another column's backing (see SliceView)
	hint storage.Hinter // mapping advice sink for heap-backed columns (heapcol.go)
}

// NewBitCol wraps a bool slice as a column.
func NewBitCol(v []bool) *BitCol { return &BitCol{V: v} }

// Kind implements Column.
func (c *BitCol) Kind() Kind { return KBit }

// Len implements Column.
func (c *BitCol) Len() int { return len(c.V) }

// Get implements Column.
func (c *BitCol) Get(i int) Value { return B(c.V[i]) }

// Heap implements Column.
func (c *BitCol) Heap() storage.HeapID { return c.heap }

// TouchAt implements Column.
func (c *BitCol) TouchAt(p *storage.Tracker, i int) { p.Touch(c.heap, int64(c.off+i)) }

// TouchPositions implements Column.
func (c *BitCol) TouchPositions(p *storage.Tracker, pos []int32) {
	p.TouchEntries(c.heap, int64(c.off), 1, pos)
}

// TouchRange implements Column; heap-backed columns advise WillNeed.
func (c *BitCol) TouchRange(p *storage.Tracker, i, n int) {
	adviseSpan(c.hint, storage.AdviceWillNeed, int64(c.off+i), int64(n))
	p.TouchRange(c.heap, int64(c.off+i), int64(n))
}

// TouchAll implements Column; full scans advise Sequential.
func (c *BitCol) TouchAll(p *storage.Tracker) {
	adviseSpan(c.hint, storage.AdviceSequential, int64(c.off), int64(len(c.V)))
	p.TouchRange(c.heap, int64(c.off), int64(len(c.V)))
}

// ByteSize implements Column.
func (c *BitCol) ByteSize() int64 { return int64(len(c.V)) }

// DateCol is a column of instants stored as days since 1970-01-01.
type DateCol struct {
	V    []int32
	heap storage.HeapID
	off  int            // heap entry offset of V[0] (non-zero for views)
	view bool           // shares another column's backing (see SliceView)
	hint storage.Hinter // mapping advice sink for heap-backed columns (heapcol.go)
}

// NewDateCol wraps a slice of day numbers as a date column.
func NewDateCol(v []int32) *DateCol { return &DateCol{V: v} }

// Kind implements Column.
func (c *DateCol) Kind() Kind { return KDate }

// Len implements Column.
func (c *DateCol) Len() int { return len(c.V) }

// Get implements Column.
func (c *DateCol) Get(i int) Value { return D(c.V[i]) }

// Heap implements Column.
func (c *DateCol) Heap() storage.HeapID { return c.heap }

// TouchAt implements Column.
func (c *DateCol) TouchAt(p *storage.Tracker, i int) { p.Touch(c.heap, int64(c.off+i)*4) }

// TouchPositions implements Column.
func (c *DateCol) TouchPositions(p *storage.Tracker, pos []int32) {
	p.TouchEntries(c.heap, int64(c.off)*4, 4, pos)
}

// TouchRange implements Column; heap-backed columns advise WillNeed.
func (c *DateCol) TouchRange(p *storage.Tracker, i, n int) {
	adviseSpan(c.hint, storage.AdviceWillNeed, int64(c.off+i)*4, int64(n)*4)
	p.TouchRange(c.heap, int64(c.off+i)*4, int64(n)*4)
}

// TouchAll implements Column; full scans advise Sequential.
func (c *DateCol) TouchAll(p *storage.Tracker) {
	adviseSpan(c.hint, storage.AdviceSequential, int64(c.off)*4, int64(len(c.V))*4)
	p.TouchRange(c.heap, int64(c.off)*4, int64(len(c.V))*4)
}

// ByteSize implements Column.
func (c *DateCol) ByteSize() int64 { return int64(len(c.V)) * 4 }

// ---------------------------------------------------------------------------
// strings: offsets into a shared character heap (paper Fig. 2: BUNs contain
// integer byte-indices into an extra tail heap for variable-size atoms).

// StrCol is a column of strings: per-entry offsets into one character heap.
// Substrings alias the heap, so Get never copies.
type StrCol struct {
	Off      []uint32 // len(V)+1 offsets into Chars
	Chars    string
	heap     storage.HeapID // offset heap
	charHeap storage.HeapID // character heap
	off      int            // heap entry offset of Off[0] (non-zero for views)
	view     bool           // shares another column's backing (see SliceView)
	hint     storage.Hinter // offset-mapping advice sink (heapcol.go)
	charHint storage.Hinter // character-mapping advice sink
}

// NewStrColFromStrings builds a string column (and its character heap) from
// a string slice.
func NewStrColFromStrings(v []string) *StrCol {
	total := 0
	for _, s := range v {
		total += len(s)
	}
	buf := make([]byte, 0, total)
	off := make([]uint32, len(v)+1)
	for i, s := range v {
		off[i] = uint32(len(buf))
		buf = append(buf, s...)
	}
	off[len(v)] = uint32(len(buf))
	return &StrCol{Off: off, Chars: string(buf)}
}

// Kind implements Column.
func (c *StrCol) Kind() Kind { return KStr }

// Len implements Column.
func (c *StrCol) Len() int { return len(c.Off) - 1 }

// At returns the string at position i without boxing.
func (c *StrCol) At(i int) string { return c.Chars[c.Off[i]:c.Off[i+1]] }

// Get implements Column.
func (c *StrCol) Get(i int) Value { return S(c.At(i)) }

// Heap implements Column.
func (c *StrCol) Heap() storage.HeapID { return c.heap }

// TouchAt implements Column; it touches both the offset entry and the
// character bytes.
func (c *StrCol) TouchAt(p *storage.Tracker, i int) {
	p.Touch(c.heap, int64(c.off+i)*4)
	lo, hi := int64(c.Off[i]), int64(c.Off[i+1])
	if hi > lo {
		p.TouchRange(c.charHeap, lo, hi-lo)
	}
}

// TouchPositions implements Column. An order-free pool settles the offset
// entries and the character spans as two per-heap batches; otherwise the
// offset/characters interleaving of TouchAt is replayed position by
// position.
func (c *StrCol) TouchPositions(p *storage.Tracker, pos []int32) {
	if p == nil {
		return
	}
	if !p.OrderFree() {
		for _, i := range pos {
			c.TouchAt(p, int(i))
		}
		return
	}
	p.TouchEntries(c.heap, int64(c.off)*4, 4, pos)
	p.TouchSpans(c.charHeap, c.Off, pos)
}

// TouchRange implements Column; the character span is contiguous because
// offsets ascend. Heap-backed columns advise WillNeed on both the offset
// and character mappings.
func (c *StrCol) TouchRange(p *storage.Tracker, i, n int) {
	c.touchRange(p, i, n, storage.AdviceWillNeed)
}

// TouchAll implements Column; routing through touchRange keeps a view's
// accounting anchored at its heap offset and limited to its character
// span. Full scans advise Sequential.
func (c *StrCol) TouchAll(p *storage.Tracker) {
	c.touchRange(p, 0, c.Len(), storage.AdviceSequential)
}

func (c *StrCol) touchRange(p *storage.Tracker, i, n int, a storage.Advice) {
	adviseSpan(c.hint, a, int64(c.off+i)*4, int64(n+1)*4)
	p.TouchRange(c.heap, int64(c.off+i)*4, int64(n+1)*4)
	lo, hi := int64(c.Off[i]), int64(c.Off[i+n])
	if hi > lo {
		adviseSpan(c.charHint, a, lo, hi-lo)
		p.TouchRange(c.charHeap, lo, hi-lo)
	}
}

// ByteSize implements Column.
func (c *StrCol) ByteSize() int64 { return int64(len(c.Off))*4 + int64(len(c.Chars)) }

// ---------------------------------------------------------------------------

// FromValues builds a column of the given kind from boxed values; it is the
// generic constructor used by operators that cannot stay on a typed fast
// path, and by tests.
func FromValues(k Kind, vs []Value) Column {
	switch k {
	case KVoid:
		var seq OID
		if len(vs) > 0 {
			seq = OID(vs[0].I)
		}
		return NewVoid(seq, len(vs))
	case KOID:
		out := make([]OID, len(vs))
		for i, v := range vs {
			out[i] = OID(v.I)
		}
		return NewOIDCol(out)
	case KInt:
		out := make([]int64, len(vs))
		for i, v := range vs {
			out[i] = v.I
		}
		return NewIntCol(out)
	case KFlt:
		out := make([]float64, len(vs))
		for i, v := range vs {
			out[i] = v.AsFloat()
		}
		return NewFltCol(out)
	case KStr:
		out := make([]string, len(vs))
		for i, v := range vs {
			out[i] = v.S
		}
		return NewStrColFromStrings(out)
	case KChr:
		out := make([]byte, len(vs))
		for i, v := range vs {
			out[i] = byte(v.I)
		}
		return NewChrCol(out)
	case KBit:
		out := make([]bool, len(vs))
		for i, v := range vs {
			out[i] = v.I != 0
		}
		return NewBitCol(out)
	case KDate:
		out := make([]int32, len(vs))
		for i, v := range vs {
			out[i] = int32(v.I)
		}
		return NewDateCol(out)
	}
	panic("bat: unknown kind " + k.String())
}

// PositionRun reports whether pos is the contiguous ascending run
// lo, lo+1, ..., lo+len(pos)-1, returning lo. The endpoint check rejects
// almost every non-run in O(1); a full verification pass runs only when the
// endpoints agree (and is then cheaper than the gather copy it saves).
func PositionRun[I int | int32 | OID](pos []I) (int, bool) {
	n := len(pos)
	if n == 0 {
		return 0, false
	}
	lo := int(pos[0])
	if int(pos[n-1])-lo != n-1 {
		return 0, false
	}
	for i := 1; i < n; i++ {
		if pos[i] != pos[i-1]+1 {
			return 0, false
		}
	}
	return lo, true
}

// SliceView returns a zero-copy view of rows [lo, lo+n) of col: the view
// shares col's backing storage — legal because BAT-algebra operations never
// change their operands after construction — and keeps fault accounting
// anchored at the original heap offsets. A view of a void column is itself a
// void column (a slice of a dense sequence is dense).
//
// Lifetime note: a view pins its operand's whole backing array (and a
// string view the whole character heap) for as long as it is retained, so a
// tiny long-lived result can hold a large operand in memory. Callers that
// retain small results past their operand's life should materialize them
// (see ROADMAP: view-aware accounting / materialize-on-retain).
func SliceView(col Column, lo, n int) Column {
	switch c := col.(type) {
	case *VoidCol:
		return NewVoid(c.Seq+OID(lo), n)
	case *OIDCol:
		return &OIDCol{V: c.V[lo : lo+n], heap: c.heap, off: c.off + lo, view: true, hint: c.hint}
	case *IntCol:
		return &IntCol{V: c.V[lo : lo+n], heap: c.heap, off: c.off + lo, view: true, hint: c.hint}
	case *FltCol:
		return &FltCol{V: c.V[lo : lo+n], heap: c.heap, off: c.off + lo, view: true, hint: c.hint}
	case *ChrCol:
		return &ChrCol{V: c.V[lo : lo+n], heap: c.heap, off: c.off + lo, view: true, hint: c.hint}
	case *BitCol:
		return &BitCol{V: c.V[lo : lo+n], heap: c.heap, off: c.off + lo, view: true, hint: c.hint}
	case *DateCol:
		return &DateCol{V: c.V[lo : lo+n], heap: c.heap, off: c.off + lo, view: true, hint: c.hint}
	case *StrCol:
		return &StrCol{Off: c.Off[lo : lo+n+1], Chars: c.Chars,
			heap: c.heap, charHeap: c.charHeap, off: c.off + lo, view: true,
			hint: c.hint, charHint: c.charHint}
	}
	// boxed fallback: no backing to share, materialize
	out := make([]Value, n)
	for i := range out {
		out[i] = col.Get(lo + i)
	}
	return FromValues(col.Kind(), out)
}

// Gather builds the column col[perm[0]], col[perm[1]], ... It is the
// positional-fetch primitive underlying sorts, joins and the datavector
// semijoin. When perm is a contiguous run the result is a zero-copy
// SliceView instead of a materialized copy.
func Gather(col Column, perm []int) Column { return gatherInto(col, perm) }

// Gather32 is Gather over the int32 position buffers the typed kernels
// produce, saving the widening copy.
func Gather32(col Column, perm []int32) Column { return gatherInto(col, perm) }

// GatherAny is the generic entry point for callers that are themselves
// generic over the position width.
func GatherAny[I int | int32](col Column, perm []I) Column { return gatherInto(col, perm) }

func gatherInto[I int | int32](col Column, perm []I) Column {
	if lo, ok := PositionRun(perm); ok {
		return SliceView(col, lo, len(perm))
	}
	switch c := col.(type) {
	case *VoidCol:
		out := make([]OID, len(perm))
		for i, p := range perm {
			out[i] = c.Seq + OID(p)
		}
		return NewOIDCol(out)
	case *OIDCol:
		out := make([]OID, len(perm))
		for i, p := range perm {
			out[i] = c.V[p]
		}
		return NewOIDCol(out)
	case *IntCol:
		out := make([]int64, len(perm))
		for i, p := range perm {
			out[i] = c.V[p]
		}
		return NewIntCol(out)
	case *FltCol:
		out := make([]float64, len(perm))
		for i, p := range perm {
			out[i] = c.V[p]
		}
		return NewFltCol(out)
	case *ChrCol:
		out := make([]byte, len(perm))
		for i, p := range perm {
			out[i] = c.V[p]
		}
		return NewChrCol(out)
	case *BitCol:
		out := make([]bool, len(perm))
		for i, p := range perm {
			out[i] = c.V[p]
		}
		return NewBitCol(out)
	case *DateCol:
		out := make([]int32, len(perm))
		for i, p := range perm {
			out[i] = c.V[p]
		}
		return NewDateCol(out)
	case *StrCol:
		out := make([]string, len(perm))
		for i, p := range perm {
			out[i] = c.At(int(p))
		}
		return NewStrColFromStrings(out)
	}
	out := make([]Value, len(perm))
	for i, p := range perm {
		out[i] = col.Get(int(p))
	}
	return FromValues(col.Kind(), out)
}

// GatherConcat builds the column a[pa[0]], …, a[pa[last]], b[pb[0]], …,
// b[pb[last]] of kind k (void folds into oid, the kind a scattered gather
// of a void column takes). A side whose kind differs from k converts
// through boxed values, exactly as FromValues(k, …) would.
func GatherConcat(k Kind, a Column, pa []int32, b Column, pb []int32) Column {
	sides := [2]gatherSide{{a, pa}, {b, pb}}
	n := len(pa) + len(pb)
	switch k {
	case KOID:
		out := make([]OID, 0, n)
		ok := true
		for _, s := range sides {
			switch c := s.col.(type) {
			case *VoidCol:
				for _, p := range s.pos {
					out = append(out, c.Seq+OID(p))
				}
			case *OIDCol:
				out = appendAt(out, c.V, s.pos)
			default:
				ok = ok && len(s.pos) == 0
			}
		}
		if ok {
			return NewOIDCol(out)
		}
	case KInt:
		if out, ok := concatFixed(sides, n, func(c *IntCol) []int64 { return c.V }); ok {
			return NewIntCol(out)
		}
	case KFlt:
		if out, ok := concatFixed(sides, n, func(c *FltCol) []float64 { return c.V }); ok {
			return NewFltCol(out)
		}
	case KChr:
		if out, ok := concatFixed(sides, n, func(c *ChrCol) []byte { return c.V }); ok {
			return NewChrCol(out)
		}
	case KBit:
		if out, ok := concatFixed(sides, n, func(c *BitCol) []bool { return c.V }); ok {
			return NewBitCol(out)
		}
	case KDate:
		if out, ok := concatFixed(sides, n, func(c *DateCol) []int32 { return c.V }); ok {
			return NewDateCol(out)
		}
	case KStr:
		out := make([]string, 0, n)
		ok := true
		for _, s := range sides {
			if c, isStr := s.col.(*StrCol); isStr {
				for _, p := range s.pos {
					out = append(out, c.At(int(p)))
				}
			} else {
				ok = ok && len(s.pos) == 0
			}
		}
		if ok {
			return NewStrColFromStrings(out)
		}
	}
	vals := make([]Value, 0, n)
	for _, s := range sides {
		for _, p := range s.pos {
			vals = append(vals, s.col.Get(int(p)))
		}
	}
	return FromValues(k, vals)
}

// gatherSide is one operand of GatherConcat.
type gatherSide struct {
	col Column
	pos []int32
}

// concatFixed gathers both sides of a fixed-width kind through backing,
// reporting false when a non-empty side is not a C column.
func concatFixed[E any, C Column](sides [2]gatherSide, n int, backing func(C) []E) ([]E, bool) {
	out := make([]E, 0, n)
	for _, s := range sides {
		if len(s.pos) == 0 {
			continue
		}
		c, ok := s.col.(C)
		if !ok {
			return nil, false
		}
		out = appendAt(out, backing(c), s.pos)
	}
	return out, true
}

func appendAt[E any](dst, v []E, pos []int32) []E {
	for _, p := range pos {
		dst = append(dst, v[p])
	}
	return dst
}

// OwnedBytes implementations: a view shares its operand's backing, so it
// owns nothing; every materialized column owns its full ByteSize. Void
// columns occupy no storage either way.

// OwnedBytes implements Column.
func (c *VoidCol) OwnedBytes() int64 { return 0 }

// OwnedBytes implements Column.
func (c *OIDCol) OwnedBytes() int64 {
	if c.view {
		return 0
	}
	return c.ByteSize()
}

// OwnedBytes implements Column.
func (c *IntCol) OwnedBytes() int64 {
	if c.view {
		return 0
	}
	return c.ByteSize()
}

// OwnedBytes implements Column.
func (c *FltCol) OwnedBytes() int64 {
	if c.view {
		return 0
	}
	return c.ByteSize()
}

// OwnedBytes implements Column.
func (c *ChrCol) OwnedBytes() int64 {
	if c.view {
		return 0
	}
	return c.ByteSize()
}

// OwnedBytes implements Column.
func (c *BitCol) OwnedBytes() int64 {
	if c.view {
		return 0
	}
	return c.ByteSize()
}

// OwnedBytes implements Column.
func (c *DateCol) OwnedBytes() int64 {
	if c.view {
		return 0
	}
	return c.ByteSize()
}

// OwnedBytes implements Column.
func (c *StrCol) OwnedBytes() int64 {
	if c.view {
		return 0
	}
	return c.ByteSize()
}

// Persist implements Column; void columns occupy no storage.
func (c *VoidCol) Persist() {}

// Persist implements Column.
func (c *OIDCol) Persist() {
	if c.heap == 0 {
		c.heap = storage.NextHeapID()
	}
}

// Persist implements Column.
func (c *IntCol) Persist() {
	if c.heap == 0 {
		c.heap = storage.NextHeapID()
	}
}

// Persist implements Column.
func (c *FltCol) Persist() {
	if c.heap == 0 {
		c.heap = storage.NextHeapID()
	}
}

// Persist implements Column.
func (c *ChrCol) Persist() {
	if c.heap == 0 {
		c.heap = storage.NextHeapID()
	}
}

// Persist implements Column.
func (c *BitCol) Persist() {
	if c.heap == 0 {
		c.heap = storage.NextHeapID()
	}
}

// Persist implements Column.
func (c *DateCol) Persist() {
	if c.heap == 0 {
		c.heap = storage.NextHeapID()
	}
}

// Persist implements Column; it persists both the offset and character
// heaps.
func (c *StrCol) Persist() {
	if c.heap == 0 {
		c.heap = storage.NextHeapID()
	}
	if c.charHeap == 0 {
		c.charHeap = storage.NextHeapID()
	}
}
