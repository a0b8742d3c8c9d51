package bat

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/storage"
)

// touchCounts is what a pool and its tracker report after one access run.
type touchCounts struct {
	poolFaults, poolHits, trFaults, trHits uint64
	resident                               int
}

// runTouches runs touch against a fresh pool of the given capacity and
// reports the resulting counts.
func runTouches(capacity int, touch func(p *storage.Tracker)) touchCounts {
	pool := storage.NewPager(4096, capacity)
	tr := pool.NewTracker()
	touch(tr)
	return touchCounts{pool.Faults(), pool.Hits(), tr.Faults(), tr.Hits(), pool.Resident()}
}

// testStrCol builds a persisted string column of n strings, a quarter of
// them empty, the rest up to 3000 bytes — so spans share, fill and straddle
// pages.
func testStrCol(rng *rand.Rand, n int) *StrCol {
	v := make([]string, n)
	for i := range v {
		if rng.Intn(4) != 0 {
			v[i] = strings.Repeat("x", rng.Intn(3000))
		}
	}
	c := NewStrColFromStrings(v)
	c.Persist()
	return c
}

// TestTouchPositionsMatchesTouchAt: every column kind's batched entry point
// — including string offsets plus character spans, and views with a heap
// offset — yields the counts of a TouchAt per position, on an unbounded
// pool (settled per distinct page) and on small bounded pools (replayed in
// order; a one-page pool faults on every page change, so any reordering
// would show).
func TestTouchPositionsMatchesTouchAt(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const n = 6000
	ints := make([]int64, n)
	oids := make([]OID, n)
	chrs := make([]byte, n)
	for i := range ints {
		ints[i], oids[i], chrs[i] = int64(i), OID(i), byte(i)
	}
	str := testStrCol(rng, n)
	cols := map[string]Column{
		"int": NewIntCol(ints), "flt": NewFltCol(make([]float64, n)),
		"oid": NewOIDCol(oids), "date": NewDateCol(make([]int32, n)),
		"chr": NewChrCol(chrs), "bit": NewBitCol(make([]bool, n)),
		"str": str, "void": NewVoid(0, n),
	}
	for _, c := range cols {
		c.Persist()
	}
	cols["int-view"] = SliceView(cols["int"], 1500, 3000)
	cols["str-view"] = SliceView(str, 1700, 3000)

	for name, c := range cols {
		pos := make([]int32, 4*c.Len())
		for i := range pos {
			pos[i] = int32(rng.Intn(c.Len()))
		}
		for _, capacity := range []int{0, 1, 7} {
			replay := runTouches(capacity, func(p *storage.Tracker) {
				for _, i := range pos {
					c.TouchAt(p, int(i))
				}
			})
			batched := runTouches(capacity, func(p *storage.Tracker) { c.TouchPositions(p, pos) })
			if batched != replay {
				t.Errorf("%s, capacity %d: TouchPositions %+v, TouchAt loop %+v", name, capacity, batched, replay)
			}
		}
	}
	// A nil tracker is a no-op on every kind.
	for _, c := range cols {
		c.TouchPositions(nil, []int32{0, 1})
	}
}

// TestTouchPairsInterleaving: a two-column gather settles per column on an
// order-free pool and replays the exact a, b, a, b, … sequence otherwise —
// checked through the injector (which forces the replay path and sees every
// touch's heap in order) and through a one-page pool.
func TestTouchPairsInterleaving(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a := NewIntCol(make([]int64, 5000))
	a.Persist()
	b := testStrCol(rng, 3000)
	apos, bpos := make([]int32, 2000), make([]int32, 2000)
	for k := range apos {
		apos[k], bpos[k] = int32(rng.Intn(a.Len())), int32(rng.Intn(b.Len()))
	}
	loop := func(p *storage.Tracker) {
		for k := range apos {
			a.TouchAt(p, int(apos[k]))
			b.TouchAt(p, int(bpos[k]))
		}
	}
	pairs := func(p *storage.Tracker) { TouchPairs(p, a, apos, b, bpos) }
	for _, capacity := range []int{0, 1} {
		if got, want := runTouches(capacity, pairs), runTouches(capacity, loop); got != want {
			t.Errorf("capacity %d: TouchPairs %+v, interleaved loop %+v", capacity, got, want)
		}
	}

	heapSeq := func(touch func(p *storage.Tracker)) []storage.HeapID {
		var seq []storage.HeapID
		pool := storage.NewPager(4096, 0)
		pool.SetFaultInjector(storage.NewFaultInjector(storage.FaultPlan{
			Heap: func(h storage.HeapID) bool { seq = append(seq, h); return false },
		}))
		touch(pool.NewTracker())
		return seq
	}
	got, want := heapSeq(pairs), heapSeq(loop)
	if len(got) != len(want) {
		t.Fatalf("injector saw %d touches, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("touch %d hit heap %d, want %d: interleaving lost", i, got[i], want[i])
		}
	}
	TouchPairs(nil, a, apos, b, bpos)
}

// TestJoinProbeAccounting: the datavector join probe attributes exactly
// what a per-row Probe plus a vector TouchAt per hit does — for a dense
// extent and for an explicit one (whose probes touch the extent heap,
// interleaved with the vector reads), order-free and replayed.
func TestJoinProbeAccounting(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const n = 4000
	vec := NewFltCol(make([]float64, n))
	vec.Persist()
	extent := make([]OID, n)
	for i := range extent {
		extent[i] = OID(3 * i) // every third oid: probes miss too
	}
	xs := make([]OID, 3000)
	for i := range xs {
		xs[i] = OID(rng.Intn(3 * n))
	}
	x := func(i int) OID { return xs[i] }
	for name, dv := range map[string]*Datavector{
		"dense":    NewDenseDatavector(100, vec),
		"explicit": NewDatavector(extent, vec),
	} {
		loop := func(p *storage.Tracker) {
			for i := range xs {
				if pos, hit := dv.Probe(p, x(i)); hit {
					dv.Vector.TouchAt(p, pos)
				}
			}
		}
		var rows, vpos []int32
		probe := func(p *storage.Tracker) { rows, vpos = dv.JoinProbe(p, len(xs), x) }
		for _, capacity := range []int{0, 1, 5} {
			if got, want := runTouches(capacity, probe), runTouches(capacity, loop); got != want {
				t.Errorf("%s, capacity %d: JoinProbe %+v, per-row loop %+v", name, capacity, got, want)
			}
		}
		var wantRows, wantPos []int32
		for i := range xs {
			if pos, hit := dv.Probe(nil, x(i)); hit {
				wantRows, wantPos = append(wantRows, int32(i)), append(wantPos, int32(pos))
			}
		}
		if len(rows) != len(wantRows) || len(rows) == 0 {
			t.Fatalf("%s: %d matches, want %d (and some)", name, len(rows), len(wantRows))
		}
		for k := range rows {
			if rows[k] != wantRows[k] || vpos[k] != wantPos[k] {
				t.Fatalf("%s: match %d = (%d,%d), want (%d,%d)", name, k, rows[k], vpos[k], wantRows[k], wantPos[k])
			}
		}
		dv.JoinProbe(nil, len(xs), x)
	}
}
