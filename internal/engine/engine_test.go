package engine

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/moa"
	"repro/internal/tpcd"
)

var (
	dbOnce sync.Once
	genDB  *tpcd.DB
	theDB  *Database
)

func testDB(t *testing.T) (*tpcd.DB, *Database) {
	t.Helper()
	dbOnce.Do(func() {
		genDB = tpcd.Generate(0.002, 7)
		env, _ := tpcd.Load(genDB)
		theDB = New(tpcd.Schema(), env)
	})
	return genDB, theDB
}

// TestAllTPCDQueriesMatchReference is the central correctness experiment:
// every TPC-D query executed through the flattened MOA→MIL pipeline must
// produce the same result as the independent direct evaluation over the
// object graph — the two gray paths of Fig. 6.
func TestAllTPCDQueriesMatchReference(t *testing.T) {
	gen, db := testDB(t)
	for _, q := range tpcd.Queries(gen) {
		q := q
		t.Run(q.Name, func(t *testing.T) {
			res, err := db.Query(q.MOA)
			if err != nil {
				t.Fatalf("Q%d: %v", q.Num, err)
			}
			want, err := tpcd.Reference(gen, q.Num)
			if err != nil {
				t.Fatal(err)
			}
			if err := tpcd.CompareResults(res.Set, want, q.Ordered); err != nil {
				t.Fatalf("Q%d mismatch: %v\nplan:\n%s\ngot:  %s\nwant: %s",
					q.Num, err, res.Plan, trunc(moa.RenderVal(res.Set)), trunc(moa.RenderVal(want)))
			}
			if res.Set != nil && len(res.Set.Elems) == 0 {
				t.Logf("Q%d: empty result at this scale", q.Num)
			}
		})
	}
}

func trunc(s string) string {
	if len(s) > 400 {
		return s[:400] + "…"
	}
	return s
}

func TestQueryErrorPaths(t *testing.T) {
	_, db := testDB(t)
	cases := []string{
		`select[=(`,                 // parse error
		`select[=(bogus, 1)](Item)`, // check error
		`nest[quantity](Item)`,      // check error: nest over objects
	}
	for _, src := range cases {
		if _, err := db.Query(src); err == nil {
			t.Errorf("%q: expected error", src)
		}
	}
}

func TestQueryStatsPopulated(t *testing.T) {
	gen, db := testDB(t)
	res, err := db.Query(tpcd.Queries(gen)[12].MOA) // Q13
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.IntermBytes <= 0 || res.Stats.PeakBytes <= 0 {
		t.Errorf("stats = %+v", res.Stats)
	}
	if len(res.Traces) == 0 {
		t.Error("no traces")
	}
	if res.Plan == nil || len(res.Plan.Stmts) == 0 {
		t.Error("no plan")
	}
}

func TestRepeatedQueriesAreIsolated(t *testing.T) {
	gen, db := testDB(t)
	q := tpcd.Queries(gen)[5].MOA // Q6 scalar
	r1, err := db.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := db.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if moa.RenderVal(r1.Set) != moa.RenderVal(r2.Set) {
		t.Fatal("repeated query changed its answer")
	}
	// base env must not accumulate intermediates
	for name := range db.Env {
		if len(name) > 0 && name[len(name)-1] >= '0' && name[len(name)-1] <= '9' {
			// generated variable names end in _<n>; none may leak
			t.Fatalf("intermediate %q leaked into base env", name)
		}
	}
}

// TestIfPromotesIntBranchToFlt: if(c, flt, int) is typed flt (moa.Check), so
// a row taking the int branch must not decide the result column's kind. With
// the int literal 0 as the else branch the Q14-style promo revenue must
// equal the 0.0 spelling; deriving the kind from row 0 read every float
// back as 0 whenever the first shipped item was not a promo part.
func TestIfPromotesIntBranchToFlt(t *testing.T) {
	env, _ := tpcd.Load(tpcd.Generate(0.005, 42))
	db := New(tpcd.Schema(), env)
	const q = `sum(project[pr](project[<if(strstarts(part.type, "PROMO"), *(extendedprice, -(1.0, discount)), %s) : pr>](select[>=(shipdate, date("1995-09-01")), <(shipdate, date("1995-10-01"))](Item))))`
	var got [2]string
	for i, zero := range []string{"0", "0.0"} {
		res, err := db.Query(fmt.Sprintf(q, zero))
		if err != nil {
			t.Fatal(err)
		}
		got[i] = moa.RenderVal(res.Set)
	}
	if got[0] != got[1] {
		t.Fatalf("if(…, 0) sums to %s, if(…, 0.0) to %s", got[0], got[1])
	}
	if got[1] == "0" {
		t.Fatal("no promo revenue at this scale: the check proves nothing")
	}
}
