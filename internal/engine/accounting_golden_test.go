package engine

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/storage"
	"repro/internal/tpcd"
)

// queryCounts is one Figure-9 query's page accounting: the faults and hits
// of a cold run (pool dropped first) and of the warm rerun right after it.
type queryCounts struct {
	ColdFaults, ColdHits, WarmFaults, WarmHits uint64
}

// fig9Accounting runs the Figure-9 mix once, query by query, each cold then
// warm, over a fresh env (so accelerator builds land in the same runs for
// every pool) and a fresh pool of the given capacity.
func fig9Accounting(t *testing.T, gen *tpcd.DB, pages int) []queryCounts {
	t.Helper()
	env, _ := tpcd.Load(gen)
	db := New(tpcd.Schema(), env)
	db.Pager = storage.NewPager(4096, pages)
	db.Workers = 1
	var out []queryCounts
	for _, q := range tpcd.Queries(gen) {
		db.Pager.DropAll()
		cold, err := db.Query(q.MOA)
		if err != nil {
			t.Fatalf("Q%d cold: %v", q.Num, err)
		}
		warm, err := db.Query(q.MOA)
		if err != nil {
			t.Fatalf("Q%d warm: %v", q.Num, err)
		}
		out = append(out, queryCounts{cold.Stats.Faults, cold.Stats.Hits, warm.Stats.Faults, warm.Stats.Hits})
	}
	return out
}

// goldenTable renders counts in the Go literal form of the tables below,
// so a deliberate accounting change can be re-recorded from the failure.
func goldenTable(c []queryCounts) string {
	var b strings.Builder
	for i, q := range c {
		fmt.Fprintf(&b, "\t{%d, %d, %d, %d}, // Q%02d\n", q.ColdFaults, q.ColdHits, q.WarmFaults, q.WarmHits, i+1)
	}
	return b.String()
}

// Golden Figure-9 accounting at SF 0.005, seed 7, 4 KiB pages, one worker:
// per query {cold faults, cold hits, warm faults, warm hits}. Recorded from
// the per-touch replay of every access; settling position lists per
// distinct page on unbounded pools must not move a single count.
var (
	goldenUnbounded = []queryCounts{
		{316, 302104, 0, 302420}, // Q01
		{30, 35954, 0, 35984},    // Q02
		{201, 19898, 0, 20099},   // Q03
		{166, 11087, 0, 11253},   // Q04
		{178, 24308, 0, 24486},   // Q05
		{252, 31298, 0, 31550},   // Q06
		{166, 193868, 0, 194034}, // Q07
		{124, 2140, 0, 2264},     // Q08
		{303, 112419, 0, 112722}, // Q09
		{186, 26926, 0, 27112},   // Q10
		{14, 24512, 0, 24526},    // Q11
		{206, 109211, 0, 109417}, // Q12
		{206, 24132, 0, 24338},   // Q13
		{213, 29350, 0, 29563},   // Q14
		{204, 30622, 0, 30826},   // Q15
	}
	// 48 pages is smaller than most queries' working sets (their warm
	// reruns fault again) and under 64 pages, so the pool is one exact LRU
	// (a single stripe): its counts depend on the touch order alone, not
	// on which stripe a heap id hashes to.
	goldenBounded48 = []queryCounts{
		{35433, 266987, 35433, 266987}, // Q01
		{30, 35954, 0, 35984},          // Q02
		{234, 19865, 234, 19865},       // Q03
		{177, 11076, 177, 11076},       // Q04
		{227, 24259, 227, 24259},       // Q05
		{1611, 29939, 1611, 29939},     // Q06
		{267, 193767, 267, 193767},     // Q07
		{124, 2140, 124, 2140},         // Q08
		{371, 112351, 371, 112351},     // Q09
		{186, 26926, 186, 26926},       // Q10
		{14, 24512, 0, 24526},          // Q11
		{723, 108694, 723, 108694},     // Q12
		{206, 24132, 206, 24132},       // Q13
		{549, 29014, 549, 29014},       // Q14
		{1070, 29756, 1070, 29756},     // Q15
	}
)

// TestFigure9AccountingGolden pins every Figure-9 query's cold and warm
// faults and hits on an unbounded pool (where position lists settle per
// distinct page) and on a 48-page LRU (where every touch replays in
// order).
func TestFigure9AccountingGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("loads SF 0.005 twice")
	}
	gen := tpcd.Generate(0.005, 7)
	for _, c := range []struct {
		name  string
		pages int
		want  []queryCounts
	}{
		{"unbounded", 0, goldenUnbounded},
		{"bounded48", 48, goldenBounded48},
	} {
		t.Run(c.name, func(t *testing.T) {
			got := fig9Accounting(t, gen, c.pages)
			if fmt.Sprint(got) != fmt.Sprint(c.want) {
				t.Fatalf("accounting moved; got:\n%s", goldenTable(got))
			}
		})
	}
}

// TestUnboundedEqualsNeverEvictingBounded: a bounded pool too large to
// ever evict replays every touch in order, an unbounded pool settles
// position lists per distinct page; on such a pool order cannot matter, so
// the two must agree on every count.
func TestUnboundedEqualsNeverEvictingBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("loads SF 0.005 twice")
	}
	gen := tpcd.Generate(0.005, 7)
	unbounded := fig9Accounting(t, gen, 0)
	large := fig9Accounting(t, gen, 1<<22)
	for i := range unbounded {
		if unbounded[i] != large[i] {
			t.Errorf("Q%02d: unbounded %+v, never-evicting bounded %+v", i+1, unbounded[i], large[i])
		}
	}
}
