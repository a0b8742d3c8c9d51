package storage

import (
	"math/rand"
	"sync"
	"testing"
)

// counts is the observable state of one pool and its tracker after a run.
type counts struct {
	poolFaults, poolHits, trFaults, trHits uint64
	resident                               int
}

func observe(p *Pager, tr *Tracker) counts {
	return counts{p.Faults(), p.Hits(), tr.Faults(), tr.Hits(), p.Resident()}
}

// shuffledPositions returns n positions over [0, span): shuffled, with
// repeats, so consecutive entries rarely share a page.
func shuffledPositions(rng *rand.Rand, n, span int) []int32 {
	pos := make([]int32, n)
	for i := range pos {
		pos[i] = int32(rng.Intn(span))
	}
	return pos
}

// TestTouchEntriesMatchesReplay: on an unbounded pool, settling a position
// list per distinct page leaves faults, hits (pool and tracker) and the
// resident set exactly where a per-touch replay of the list leaves them —
// for shuffled and repeated positions, entries straddling page boundaries
// (base not a multiple of the width), a page size that is not a power of
// two, a range wider than the on-stack bitmap, and a pool that is already
// partly warm.
func TestTouchEntriesMatchesReplay(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	cases := []struct {
		name        string
		pageSize    int64
		base, width int64
		pos         []int32
	}{
		{"shuffled", 4096, 0, 8, shuffledPositions(rng, 5000, 20000)},
		{"straddling", 4096, 4092, 8, shuffledPositions(rng, 3000, 4096)},
		{"repeated", 4096, 0, 4, []int32{7, 7, 7, 1024, 7, 1023, 1024, 0}},
		{"odd-pagesize", 1000, 12, 8, shuffledPositions(rng, 4000, 9000)},
		{"wide-range", 4096, 0, 8, shuffledPositions(rng, 2000, 8<<20)},
		{"single", 4096, 0, 1, []int32{5}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			replayPool, batchPool := NewPager(c.pageSize, 0), NewPager(c.pageSize, 0)
			h := NextHeapID()
			// Warm a few pages first so the batch meets resident pages too.
			for _, p := range []*Pager{replayPool, batchPool} {
				p.TouchRange(h, 0, 3*c.pageSize)
			}
			replay, batch := replayPool.NewTracker(), batchPool.NewTracker()
			for _, i := range c.pos {
				replay.Touch(h, c.base+int64(i)*c.width)
			}
			batch.TouchEntries(h, c.base, c.width, c.pos)
			if got, want := observe(batchPool, batch), observe(replayPool, replay); got != want {
				t.Fatalf("batched %+v, replay %+v", got, want)
			}
			if batch.Faults()+batch.Hits() != uint64(len(c.pos)) {
				t.Fatalf("batch counted %d touches, want %d", batch.Faults()+batch.Hits(), len(c.pos))
			}
		})
	}
}

// TestTouchSpansMatchesReplay: character spans — empty strings, spans
// inside one page, spans straddling pages, repeats, out-of-order positions
// and a view whose positions start past 0 — settle to the same counts as a
// TouchRange per non-empty span.
func TestTouchSpansMatchesReplay(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	// 3000 strings of 0..5000 bytes, a fifth of them empty.
	bounds := make([]uint32, 3001)
	for i := 1; i < len(bounds); i++ {
		n := uint32(rng.Intn(5000))
		if rng.Intn(5) == 0 {
			n = 0
		}
		bounds[i] = bounds[i-1] + n
	}
	view := bounds[1200:2001] // a view: offsets do not start at 0
	cases := []struct {
		name   string
		bounds []uint32
		pos    []int32
	}{
		{"shuffled", bounds, shuffledPositions(rng, 4000, 3000)},
		{"view", view, shuffledPositions(rng, 1500, 800)},
		{"all-empty", []uint32{9, 9, 9}, []int32{0, 1, 1}},
		{"repeated", bounds, []int32{5, 5, 4, 5, 4}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			replayPool, batchPool := NewPager(4096, 0), NewPager(4096, 0)
			h := NextHeapID()
			replay, batch := replayPool.NewTracker(), batchPool.NewTracker()
			for _, i := range c.pos {
				lo, hi := int64(c.bounds[i]), int64(c.bounds[i+1])
				replay.TouchRange(h, lo, hi-lo)
			}
			batch.TouchSpans(h, c.bounds, c.pos)
			if got, want := observe(batchPool, batch), observe(replayPool, replay); got != want {
				t.Fatalf("batched %+v, replay %+v", got, want)
			}
		})
	}
}

// TestBoundedPoolReplaysInOrder: LRU eviction makes order matter, so a
// bounded pool must replay every touch. Pages 0,1,2,0 through a two-page
// pool fault four times; a per-page settle would report three faults and
// a hit.
func TestBoundedPoolReplaysInOrder(t *testing.T) {
	p := NewPager(4096, 2)
	h := p.NewHeap()
	tr := p.NewTracker()
	if tr.OrderFree() {
		t.Fatal("a bounded pool is not order-free")
	}
	tr.TouchEntries(h, 0, 4096, []int32{0, 1, 2, 0})
	if tr.Faults() != 4 || tr.Hits() != 0 || p.Faults() != 4 {
		t.Fatalf("tracker %d/%d, pool %d faults: want 4/0 and 4 (exact LRU replay)", tr.Faults(), tr.Hits(), p.Faults())
	}
	// Spans replay in order too: pages 0..1, then 2, then 0 again.
	q := NewPager(4096, 2)
	tq := q.NewTracker()
	tq.TouchSpans(h, []uint32{0, 8192, 12288, 0, 100}, []int32{0, 1, 3})
	if tq.Faults() != 4 || tq.Hits() != 0 {
		t.Fatalf("spans: tracker %d/%d, want 4/0", tq.Faults(), tq.Hits())
	}
}

// TestInjectorForcesReplay: an attached injector counts touches, so it
// must see every one — FailEvery fires on the same touch number as a
// per-touch loop, and Σ trackers == pool survives the injected panic.
func TestInjectorForcesReplay(t *testing.T) {
	p := NewPager(4096, 0)
	h := p.NewHeap()
	inj := NewFaultInjector(FaultPlan{FailEvery: 5})
	p.SetFaultInjector(inj)
	tr := p.NewTracker()
	if tr.OrderFree() {
		t.Fatal("a pool with an injector is not order-free")
	}
	// Ten touches of one page: a per-page settle would visit it once.
	pos := make([]int32, 10)
	r := catchPanic(func() { tr.TouchEntries(h, 0, 8, pos) })
	f, ok := r.(*InjectedFault)
	if !ok {
		t.Fatalf("expected injected fault, got %v", r)
	}
	if f.N != 5 {
		t.Fatalf("fault fired on touch %d, want 5", f.N)
	}
	if tr.Faults() != 1 || tr.Hits() != 3 {
		t.Fatalf("tracker %d/%d, want 1/3 (the four touches before the fault)", tr.Faults(), tr.Hits())
	}
	if tr.Faults() != p.Faults() || tr.Hits() != p.Hits() {
		t.Fatalf("conservation broken after panic: tracker %d/%d, pool %d/%d", tr.Faults(), tr.Hits(), p.Faults(), p.Hits())
	}

	// Spans: the third page touch of a span list fails, after the two
	// before it were attributed.
	q := NewPager(4096, 0)
	q.SetFaultInjector(NewFaultInjector(FaultPlan{FailEvery: 3}))
	tq := q.NewTracker()
	r = catchPanic(func() { tq.TouchSpans(h, []uint32{0, 8192, 16384}, []int32{0, 1}) })
	if f, ok := r.(*InjectedFault); !ok || f.N != 3 {
		t.Fatalf("spans: expected injected fault on touch 3, got %v", r)
	}
	if tq.Faults() != 2 || tq.Faults()+tq.Hits() != q.Faults()+q.Hits() {
		t.Fatalf("spans: tracker %d/%d, pool %d/%d: want 2 faults and conservation", tq.Faults(), tq.Hits(), q.Faults(), q.Hits())
	}

	// Detached, the pool is order-free again.
	p.SetFaultInjector(nil)
	if !tr.OrderFree() {
		t.Fatal("detaching the injector must restore the order-free path")
	}
}

// TestSettledHitsAggregate: the repeat touches a batch credits without a
// stripe visit are part of Hits and are zeroed by ResetStats.
func TestSettledHitsAggregate(t *testing.T) {
	p := NewPager(4096, 0)
	h := p.NewHeap()
	tr := p.NewTracker()
	tr.TouchEntries(h, 0, 8, []int32{0, 1, 2, 3, 600}) // two pages
	if p.Faults() != 2 || p.Hits() != 3 || tr.Hits() != 3 {
		t.Fatalf("pool %d/%d, tracker hits %d: want 2/3 and 3", p.Faults(), p.Hits(), tr.Hits())
	}
	p.ResetStats()
	if p.Hits() != 0 || p.Faults() != 0 {
		t.Fatalf("ResetStats left %d/%d", p.Faults(), p.Hits())
	}
	if tr.Hits() != 3 {
		t.Fatal("ResetStats must not touch tracker counters")
	}
	var nilTr *Tracker
	nilTr.TouchEntries(h, 0, 8, []int32{1})
	nilTr.TouchSpans(h, []uint32{0, 10}, []int32{0})
	if nilTr.OrderFree() {
		t.Fatal("a nil tracker is not order-free")
	}
}

// TestConcurrentBatchesConserve (run under -race): goroutines settling
// overlapping position lists on one unbounded pool fault each page exactly
// once between them, and Σ trackers == pool.
func TestConcurrentBatchesConserve(t *testing.T) {
	p := NewPager(4096, 0)
	h := p.NewHeap()
	const goroutines = 8
	trackers := make([]*Tracker, goroutines)
	var wg sync.WaitGroup
	for g := range trackers {
		trackers[g] = p.NewTracker()
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for round := 0; round < 20; round++ {
				trackers[g].TouchEntries(h, 0, 8, shuffledPositions(rng, 1000, 512*512))
			}
		}(g)
	}
	wg.Wait()
	var faults, hits uint64
	for _, tr := range trackers {
		faults += tr.Faults()
		hits += tr.Hits()
	}
	if faults != p.Faults() || hits != p.Hits() {
		t.Fatalf("Σ trackers %d/%d != pool %d/%d", faults, hits, p.Faults(), p.Hits())
	}
	if faults != uint64(p.Resident()) {
		t.Fatalf("%d faults for %d resident pages: a page faulted twice", faults, p.Resident())
	}
	if faults+hits != goroutines*20*1000 {
		t.Fatalf("%d touches counted, want %d", faults+hits, goroutines*20*1000)
	}
}
