// Package storage simulates the paged, memory-mapped storage layer that the
// Monet kernel of Boncz et al. (ICDE 1998) obtains from the operating system.
//
// Monet has no page-based buffer manager of its own: BATs live in memory
// mapped files and the MMU pages them in on demand. The paper's evaluation
// (Figures 8, 9 and 10) is stated in terms of page faults, so this package
// provides the equivalent observable: the BAT algebra reports its heap
// accesses to a Pager, which maintains an LRU pool of fixed size pages and
// counts the faults that a cold or capacity-limited buffer would incur.
//
// Accounting rule. Every access is counted exactly — one touch per entry or
// per page of a span, the same totals however they are reported — but not
// every access is replayed one by one:
//
//   - On an unbounded pool with no FaultInjector attached, counts do not
//     depend on touch order: a touch faults exactly when it is the first
//     touch of its page since DropAll, and every other touch hits. A list
//     of random accesses (TouchEntries, TouchSpans) is therefore settled
//     per distinct page — each page goes through the pool once, and the
//     repeats are credited as hits in one step.
//   - On a bounded pool (LRU eviction makes order matter) or with an
//     injector attached (its cadence counts touches), every touch is
//     replayed through the pool in the caller's order.
//
// The pool is lock-striped so that concurrent sessions of the query service
// can share one Pager — the OS page cache they stand in for is likewise one
// shared structure. Pages hash to stripes, each stripe guards its own table,
// LRU list and fault/hit counters with its own mutex (so reading the
// aggregates mid-query is race-free without a pool-global counter cache
// line every touch would contend on). Per-query attribution — "how many faults did THIS query take",
// the Figure 9/10 observable — is handled by Tracker, a per-query view that
// reports its touches to the shared pool and records the outcome locally.
//
// A nil *Pager (or *Tracker) is valid everywhere and disables accounting,
// which is the "database hot-set fits in main memory" regime the paper
// assumes for its main-memory algorithms.
package storage

import (
	"math/bits"
	"sync"
	"sync/atomic"
)

// DefaultPageSize is the page size used throughout the paper's cost model
// (B = 4096 in Section 5.2.2).
const DefaultPageSize = 4096

// HeapID identifies one storage heap (one column's BUN heap or string heap).
// IDs are allocated by NextHeapID (or Pager.NewHeap) and are never reused.
// The zero HeapID marks transient storage: intermediate results live in
// main memory (the paper's hot-set assumption) and never fault.
type HeapID uint64

// heapCounter allocates globally unique heap identifiers; see NextHeapID.
var heapCounter uint64

// NextHeapID allocates a fresh heap identifier for persistent storage.
func NextHeapID() HeapID {
	return HeapID(atomic.AddUint64(&heapCounter, 1))
}

type pageKey struct {
	heap HeapID
	page int64
}

type pageNode struct {
	key        pageKey
	prev, next *pageNode
}

// Stripe sizing. A bounded pool splits its capacity across stripes, turning
// the global LRU into per-stripe LRUs (the standard sharded approximation);
// to keep each stripe's LRU meaningful — and to keep small bounded pools
// bit-identical to the pre-striping global LRU — the stripe count shrinks
// until every stripe holds at least minStripePages pages. An unbounded pool
// never evicts, so striping cannot change its fault counts and it always
// uses maxStripes.
//
// minStripePages matters for bounded pools only. They replay every touch
// in order (unbounded pools settle position lists per distinct page), and
// their counts are reproducible only while the pool is one exact LRU.
// Pools under 64 pages stay single-stripe: TestStripeCountAdapts pins it,
// the golden Figure-9 accounting test relies on it for its bounded pool,
// and EXPERIMENTS.md's ≤63-page bounded runs (the Figure-10-style
// cmd/tpcd -poolpages LRU experiments) assume it.
const (
	maxStripes     = 64 // power of two: stripe index is a hash mask
	minStripePages = 32
)

// stripe is one lock-striped partition of the pool: a private page table,
// LRU list and fault/hit counters under a private mutex — counting under
// the already-held stripe lock avoids a pool-global counter cache line
// that every touch would otherwise contend on. The trailing pad keeps
// adjacent stripes off one cache line.
type stripe struct {
	mu       sync.Mutex
	table    map[pageKey]*pageNode
	head     *pageNode // most recently used
	tail     *pageNode // least recently used
	capacity int       // max resident pages in this stripe; <= 0 unbounded
	faults   uint64
	hits     uint64

	_ [64]byte
}

// Pager is an LRU buffer pool of fixed-size pages with fault accounting.
// It is safe for concurrent use: concurrent sessions of the query service
// share one Pager the way Monet's sessions share the OS page cache. Use
// NewTracker for per-query fault attribution; the Pager's own counters
// aggregate across all users.
type Pager struct {
	pageSize int64
	capacity int    // max resident pages across all stripes; <= 0 unbounded
	mask     uint64 // len(stripes) - 1

	// injector, when non-nil, applies a fault-injection plan to every
	// persistent touch (chaos harness; see fault.go). Checked before the
	// stripe lock so an injected panic never wedges the pool.
	injector atomic.Pointer[FaultInjector]

	// pageShift is log2(pageSize) when the page size is a power of two
	// (the batched settle paths shift instead of divide), else -1.
	pageShift int

	// settledHits counts the repeat touches that batched settles credit
	// as hits without a stripe visit (see TouchEntries): one atomic add
	// per batch. Hits adds it to the stripe counters; ResetStats zeroes it.
	settledHits atomic.Uint64

	stripes []stripe
}

// SetFaultInjector attaches (or, with nil, removes) a fault injector. Safe
// to call while other sessions touch the pool.
func (p *Pager) SetFaultInjector(f *FaultInjector) {
	if p == nil {
		return
	}
	p.injector.Store(f)
}

// stripeCount picks the stripe count for a pool capacity; see the sizing
// comment above.
func stripeCount(capacity int) int {
	if capacity <= 0 {
		return maxStripes
	}
	s := 1
	for s*2 <= maxStripes && capacity/(s*2) >= minStripePages {
		s *= 2
	}
	return s
}

// NewPager returns a Pager with the given page size in bytes and capacity in
// pages. pageSize <= 0 selects DefaultPageSize. capacity <= 0 means the pool
// never evicts (every page faults exactly once — the "cold start" model of
// Section 5.2.2).
func NewPager(pageSize int64, capacity int) *Pager {
	if pageSize <= 0 {
		pageSize = DefaultPageSize
	}
	n := stripeCount(capacity)
	p := &Pager{
		pageSize:  pageSize,
		capacity:  capacity,
		mask:      uint64(n - 1),
		pageShift: -1,
		stripes:   make([]stripe, n),
	}
	if pageSize&(pageSize-1) == 0 {
		p.pageShift = bits.TrailingZeros64(uint64(pageSize))
	}
	for i := range p.stripes {
		s := &p.stripes[i]
		s.table = make(map[pageKey]*pageNode)
		if capacity > 0 {
			// Distribute the capacity exactly: total resident never
			// exceeds the configured bound.
			s.capacity = capacity / n
			if i < capacity%n {
				s.capacity++
			}
		}
	}
	return p
}

// PageSize reports the page size in bytes.
func (p *Pager) PageSize() int64 {
	if p == nil {
		return DefaultPageSize
	}
	return p.pageSize
}

// Stripes reports the number of lock stripes the pool was built with.
func (p *Pager) Stripes() int {
	if p == nil {
		return 0
	}
	return len(p.stripes)
}

// NewHeap allocates a fresh heap identifier (shared namespace with
// NextHeapID, so ids never collide across allocators).
func (p *Pager) NewHeap() HeapID {
	if p == nil {
		return 0
	}
	return NextHeapID()
}

// Faults reports the number of page faults since the last ResetStats,
// aggregated over every session touching the pool. The counters live
// per-stripe (updated under the stripe lock each touch already holds), so
// reading them mid-query is race-free; like Resident, a read concurrent
// with touches is a sum of per-stripe snapshots, not one instant.
func (p *Pager) Faults() uint64 {
	if p == nil {
		return 0
	}
	var n uint64
	for i := range p.stripes {
		s := &p.stripes[i]
		s.mu.Lock()
		n += s.faults
		s.mu.Unlock()
	}
	return n
}

// Hits reports the number of page hits since the last ResetStats,
// aggregated over every session touching the pool.
func (p *Pager) Hits() uint64 {
	if p == nil {
		return 0
	}
	n := p.settledHits.Load()
	for i := range p.stripes {
		s := &p.stripes[i]
		s.mu.Lock()
		n += s.hits
		s.mu.Unlock()
	}
	return n
}

// ResetStats zeroes the aggregate fault and hit counters without touching
// pool state. Trackers keep their own counters and are unaffected.
func (p *Pager) ResetStats() {
	if p == nil {
		return
	}
	for i := range p.stripes {
		s := &p.stripes[i]
		s.mu.Lock()
		s.faults, s.hits = 0, 0
		s.mu.Unlock()
	}
	p.settledHits.Store(0)
}

// DropAll empties the pool, simulating a cold buffer (e.g. between benchmark
// queries). Counters are unaffected.
func (p *Pager) DropAll() {
	if p == nil {
		return
	}
	for i := range p.stripes {
		s := &p.stripes[i]
		s.mu.Lock()
		s.table = make(map[pageKey]*pageNode)
		s.head, s.tail = nil, nil
		s.mu.Unlock()
	}
}

// Resident reports the number of pages currently in the pool.
func (p *Pager) Resident() int {
	if p == nil {
		return 0
	}
	n := 0
	for i := range p.stripes {
		s := &p.stripes[i]
		s.mu.Lock()
		n += len(s.table)
		s.mu.Unlock()
	}
	return n
}

// Touch records an access to byte offset off in heap h. Exactly one page is
// touched. Accesses to transient storage (heap 0) are ignored.
func (p *Pager) Touch(h HeapID, off int64) {
	if p == nil || h == 0 {
		return
	}
	p.touchKey(pageKey{h, off / p.pageSize})
}

// TouchRange records a sequential access to bytes [off, off+n) of heap h,
// touching each page in the range once. Accesses to transient storage
// (heap 0) are ignored.
func (p *Pager) TouchRange(h HeapID, off, n int64) {
	if p == nil || h == 0 || n <= 0 {
		return
	}
	first := off / p.pageSize
	last := (off + n - 1) / p.pageSize
	for pg := first; pg <= last; pg++ {
		p.touchKey(pageKey{h, pg})
	}
}

// touchKey routes the page to its stripe and reports whether the touch
// faulted (the page was not resident).
func (p *Pager) touchKey(k pageKey) bool {
	if inj := p.injector.Load(); inj != nil {
		inj.visit(k) // may sleep or panic; no locks held, nothing recorded yet
	}
	return p.stripeTouch(k)
}

// stripeTouch records one touch of page k in its stripe, bypassing the
// injector, and reports whether it faulted.
func (p *Pager) stripeTouch(k pageKey) bool {
	// splitmix-style mix of (heap, page): heaps are small sequential ints
	// and page runs are sequential, so both need scrambling before masking.
	x := uint64(k.heap)*0x9E3779B97F4A7C15 + uint64(k.page)
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	s := &p.stripes[x&p.mask]

	s.mu.Lock()
	fault := s.touch(k)
	s.mu.Unlock()
	return fault
}

// touch is the stripe-local LRU update; callers hold s.mu.
func (s *stripe) touch(k pageKey) bool {
	if n, ok := s.table[k]; ok {
		s.hits++
		s.moveToFront(n)
		return false
	}
	s.faults++
	n := &pageNode{key: k}
	s.table[k] = n
	s.pushFront(n)
	if s.capacity > 0 && len(s.table) > s.capacity {
		s.evict()
	}
	return true
}

func (s *stripe) pushFront(n *pageNode) {
	n.prev = nil
	n.next = s.head
	if s.head != nil {
		s.head.prev = n
	}
	s.head = n
	if s.tail == nil {
		s.tail = n
	}
}

func (s *stripe) moveToFront(n *pageNode) {
	if s.head == n {
		return
	}
	// unlink
	if n.prev != nil {
		n.prev.next = n.next
	}
	if n.next != nil {
		n.next.prev = n.prev
	}
	if s.tail == n {
		s.tail = n.prev
	}
	s.pushFront(n)
}

func (s *stripe) evict() {
	n := s.tail
	if n == nil {
		return
	}
	if n.prev != nil {
		n.prev.next = nil
	}
	s.tail = n.prev
	if s.head == n {
		s.head = nil
	}
	delete(s.table, n.key)
}

// Tracker is one query's view of a shared Pager: every touch is reported to
// the shared pool — whose state alone decides hit versus fault — and the
// outcome is also recorded in the tracker's own counters. A batch of random
// accesses is either replayed touch by touch or, on an unbounded pool with
// no injector, settled per distinct page (see the package comment and
// TouchEntries); both attribute the same faults and hits. This is how the
// per-query Figure 9/10 fault observable survives concurrency: N sessions
// sharing one pool each read their own faults off their own tracker, instead
// of differencing the pool's aggregate counter around execution (which
// interleaves concurrent sessions' faults into each other's deltas).
//
// Every pool fault and hit is attributed to exactly one tracker, so summing
// tracker counters over all queries reproduces the pool counters.
//
// A nil *Tracker is valid and disables accounting. The counters are atomics
// so a tracker may be read (e.g. by a metrics scrape) while its query runs.
type Tracker struct {
	pool *Pager

	faults atomic.Uint64
	hits   atomic.Uint64
}

// NewTracker returns a fresh per-query tracker over the pool. A nil Pager
// yields a nil Tracker.
func (p *Pager) NewTracker() *Tracker {
	if p == nil {
		return nil
	}
	return &Tracker{pool: p}
}

// Pool exposes the shared Pager the tracker attributes into.
func (t *Tracker) Pool() *Pager {
	if t == nil {
		return nil
	}
	return t.pool
}

// Faults reports the number of page faults attributed to this tracker.
func (t *Tracker) Faults() uint64 {
	if t == nil {
		return 0
	}
	return t.faults.Load()
}

// Hits reports the number of page hits attributed to this tracker.
func (t *Tracker) Hits() uint64 {
	if t == nil {
		return 0
	}
	return t.hits.Load()
}

// Touch records an access to byte offset off in heap h against the shared
// pool, attributing the outcome to this tracker. Exactly one page is
// touched. Accesses to transient storage (heap 0) are ignored.
func (t *Tracker) Touch(h HeapID, off int64) {
	if t == nil || h == 0 {
		return
	}
	if t.pool.touchKey(pageKey{h, off / t.pool.pageSize}) {
		t.faults.Add(1)
	} else {
		t.hits.Add(1)
	}
}

// TouchRange records a sequential access to bytes [off, off+n) of heap h
// against the shared pool, touching each page in the range once and
// attributing the outcomes to this tracker. Accesses to transient storage
// (heap 0) are ignored.
//
// Attribution is deferred so it also runs when an injected fault panics
// mid-range: the pages touched before the panic were already recorded in
// the pool, and losing their tracker counts would break the Σ(trackers) =
// pool conservation invariant the chaos suite asserts.
func (t *Tracker) TouchRange(h HeapID, off, n int64) {
	if t == nil || h == 0 || n <= 0 {
		return
	}
	first := off / t.pool.pageSize
	last := (off + n - 1) / t.pool.pageSize
	var faults, hits uint64
	defer func() {
		if faults > 0 {
			t.faults.Add(faults)
		}
		if hits > 0 {
			t.hits.Add(hits)
		}
	}()
	for pg := first; pg <= last; pg++ {
		if t.pool.touchKey(pageKey{h, pg}) {
			faults++
		} else {
			hits++
		}
	}
}

// OrderFree reports whether the tracker's touches may be settled in any
// order: the pool is unbounded (it never evicts, so a touch faults exactly
// when it is the first touch of its page since DropAll) and no injector
// counts touches. Callers that interleave several heaps use it to choose
// between per-heap batches (TouchEntries, TouchSpans) and an exact replay of
// their touch sequence.
func (t *Tracker) OrderFree() bool {
	return t != nil && t.pool.capacity <= 0 && t.pool.injector.Load() == nil
}

// TouchEntries records random accesses to the fixed-width entries pos of
// heap h: entry i is touched at byte base+i*width, exactly as a Touch per
// position in list order would. On an order-free pool the list is settled
// per distinct page (see settle); otherwise every touch is replayed in
// order. Accesses to transient storage (heap 0) are ignored.
func (t *Tracker) TouchEntries(h HeapID, base, width int64, pos []int32) {
	if t == nil || h == 0 || len(pos) == 0 {
		return
	}
	if !t.OrderFree() {
		for _, i := range pos {
			t.Touch(h, base+int64(i)*width)
		}
		return
	}
	lo, hi := pos[0], pos[0]
	for _, i := range pos {
		lo, hi = min(lo, i), max(hi, i)
	}
	var buf [pageSetWords]uint64
	s := t.pool.newPageSet(buf[:], base+int64(lo)*width, base+int64(hi)*width)
	for _, i := range pos {
		s.mark(t.pool.pageOf(base + int64(i)*width))
	}
	t.settle(h, &s, uint64(len(pos)))
}

// TouchSpans records reads of the byte spans [bounds[i], bounds[i+1]) of
// heap h for each i in pos — a string column's character ranges — exactly
// as a TouchRange per non-empty span in list order would (empty spans touch
// nothing). Order-free pools settle per distinct page; otherwise every span
// is replayed in order. Accesses to transient storage (heap 0) are ignored.
func (t *Tracker) TouchSpans(h HeapID, bounds []uint32, pos []int32) {
	if t == nil || h == 0 || len(pos) == 0 {
		return
	}
	if !t.OrderFree() {
		for _, i := range pos {
			lo, hi := int64(bounds[i]), int64(bounds[i+1])
			t.TouchRange(h, lo, hi-lo)
		}
		return
	}
	lo, hi := int64(-1), int64(-1)
	for _, i := range pos {
		if a, b := int64(bounds[i]), int64(bounds[i+1]); b > a {
			if lo < 0 || a < lo {
				lo = a
			}
			hi = max(hi, b-1)
		}
	}
	if lo < 0 {
		return // every span empty
	}
	var buf [pageSetWords]uint64
	s := t.pool.newPageSet(buf[:], lo, hi)
	var touches uint64
	for _, i := range pos {
		a, b := int64(bounds[i]), int64(bounds[i+1])
		if b <= a {
			continue
		}
		first, last := t.pool.pageOf(a), t.pool.pageOf(b-1)
		for pg := first; pg <= last; pg++ {
			s.mark(pg)
		}
		touches += uint64(last - first + 1)
	}
	t.settle(h, &s, touches)
}

// pageSetWords sizes the on-stack bitmap of a batched settle: 64 words
// cover 4096 pages (16 MiB of 4 KiB pages) without allocating.
const pageSetWords = 64

// pageSet marks the distinct pages of one batch: a bitmap over the page
// range [first, first+64·len(bits)).
type pageSet struct {
	first int64
	bits  []uint64
}

// newPageSet returns an empty set over the pages holding bytes [lo, hi],
// backed by buf when the range fits.
func (p *Pager) newPageSet(buf []uint64, lo, hi int64) pageSet {
	first, last := p.pageOf(lo), p.pageOf(hi)
	words := int((last-first)/64) + 1
	if words > len(buf) {
		buf = make([]uint64, words)
	}
	return pageSet{first: first, bits: buf[:words]}
}

func (s *pageSet) mark(pg int64) {
	r := uint64(pg - s.first)
	s.bits[r/64] |= 1 << (r % 64)
}

// pageOf maps a byte offset to its page number.
func (p *Pager) pageOf(off int64) int64 {
	if p.pageShift >= 0 {
		return off >> p.pageShift
	}
	return off / p.pageSize
}

// settle accounts a batch of touches of heap h whose distinct pages are
// marked in s. Each distinct page is touched once through its stripe, so
// the pool decides fault or hit exactly as for the batch's first touch of
// that page (concurrent first touches race there, as single touches do).
// On an unbounded pool every later touch of a page is a hit, so the
// remaining touches−distinct are credited as hits with one atomic add.
// The stripe path bypasses the injector: OrderFree was decided for the
// whole batch, and a panic half-way would break Σ(trackers) = pool.
func (t *Tracker) settle(h HeapID, s *pageSet, touches uint64) {
	var faults, hits, distinct uint64
	for w, word := range s.bits {
		for word != 0 {
			pg := s.first + int64(w*64+bits.TrailingZeros64(word))
			word &= word - 1
			if t.pool.stripeTouch(pageKey{h, pg}) {
				faults++
			} else {
				hits++
			}
			distinct++
		}
	}
	repeats := touches - distinct
	if repeats > 0 {
		t.pool.settledHits.Add(repeats)
	}
	if faults > 0 {
		t.faults.Add(faults)
	}
	if hits+repeats > 0 {
		t.hits.Add(hits + repeats)
	}
}
