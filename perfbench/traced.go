package main

import (
	"fmt"
	"math"
	"os"
	"time"

	"repro/internal/epoch"
	"repro/internal/moa"
	"repro/internal/storage"
	"repro/internal/tpcd"
)

// variantNames are the operator variants the Figure-9 plans execute
// today, as sanitized trace Algo strings; a variant outside this list is
// reported under "other".
var variantNames = []string{
	"aligned-multiplex", "binsearch-select", "calc", "datavector-join", "datavector-semijoin",
	"fetch-join", "hash-aggr", "hash-group", "hash-join", "hash-multiplex", "hash-semijoin",
	"hash-union", "hash-unique", "mark", "merge-join", "merge-semijoin", "mirror",
	"ordered-aggr", "pipeline", "scalar-aggr", "scan-select", "slice", "sort",
	"sync-join", "sync-semijoin", "other",
}

// perLayerUnits lists every per-layer metric and its unit, in report
// order. Metrics a workload does not exercise report 0.
func perLayerUnits() []struct{ name, unit string } {
	out := []struct{ name, unit string }{
		{"storage.touches", "count"}, {"storage.faults", "count"},
		{"storage.accounting_ms", "ms"}, {"storage.ns_per_touch", "ns"},
		{"mil.exec_ms", "ms"}, {"mil.interm_mb", "MiB"}, {"mil.peak_mb", "MiB"},
	}
	for _, v := range variantNames {
		out = append(out,
			struct{ name, unit string }{"mil.variant." + v + ".ms", "ms"},
			struct{ name, unit string }{"mil.variant." + v + ".n", "count"})
	}
	out = append(out, []struct{ name, unit string }{
		{"gc.alloc_mb", "MiB"}, {"gc.allocs", "count"}, {"gc.cycles", "count"}, {"gc.cpu_frac", "ratio"},
	}...)
	for q := 1; q <= 15; q++ {
		out = append(out, struct{ name, unit string }{fmt.Sprintf("engine.Q%02d_ms", q), "ms"})
	}
	return append(out, []struct{ name, unit string }{
		{"moa.parse_us", "us"}, {"moa.check_us", "us"}, {"moa.materialize_us", "us"},
		{"rewrite.translate_us", "us"}, {"rewrite.stmts", "count"}, {"server.plan_hit_ratio", "ratio"},
		{"bat.accel_builds", "count"}, {"bat.accel_build_ms", "ms"},
		{"tpcd.validate_ms", "ms"}, {"tpcd.apply_ms", "ms"},
		{"epoch.durable_ms", "ms"}, {"epoch.checkpoint_ms", "ms"},
		{"epoch.wal_syncs_per_ingest", "count"}, {"epoch.pinned_max", "count"},
		{"heapfile.linked_frac", "ratio"},
		{"trace.overhead_ms", "ms"}, {"trace.spans", "count"},
	}...)
}

// runTraced is the traced run. It first drives the workload through the
// service briefly to read the service's own counters (plan-cache hit
// ratio, pinned epochs, WAL syncs), then replays the workload's operations
// through the layer entry points with the benchmark's clock around each
// call. Query-layer metrics are per round of the 15-query mix.
func runTraced(cfg config) (*result, error) {
	var t tally
	m := map[string]float64{}
	tr := newTracer()
	var err error
	if cfg.Workload == wRefreshMixed {
		err = traceRefresh(&t, cfg, tr, m)
	} else {
		err = traceFig9(&t, cfg, tr, m)
	}
	if err != nil {
		return nil, err
	}
	if err := tr.write(cfg.Spans); err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	out := map[string]metric{}
	for _, e := range perLayerUnits() {
		out[e.name] = metric{m[e.name], e.unit}
	}
	return finish(t, out), nil
}

// newReplayer starts a replay with a fresh pool of moaserve's default
// pager, so its first round faults exactly as a cold server.
func newReplayer(cfg config, tr *tracer, qs []tpcd.Query) *replayer {
	return &replayer{
		tr: tr, schema: tpcd.Schema(), pager: storage.NewPager(0, 0),
		queries: qs, offset: offsets(cfg.Seed, 1, len(qs))[0],
	}
}

func traceFig9(t *tally, cfg config, tr *tracer, m map[string]float64) error {
	s, refs, _, err := setupChecked(t, cfg, readDurable(cfg), 1)
	if err != nil {
		return err
	}
	defer s.close()

	m0 := s.svc.Snapshot()
	reads := readLoop(s.svc, s.queries, offsets(cfg.Seed, cfg.Clients, len(s.queries)),
		secondsDur(cfg.Seconds/4), 0, nil, true)
	t.merge(reads.tally)
	m1 := s.svc.Snapshot()
	m["server.plan_hit_ratio"] = hitRatio(m0.PlanHits, m0.PlanMisses, m1.PlanHits, m1.PlanMisses)
	m["epoch.pinned_max"] = float64(reads.pinnedMax)

	rp := newReplayer(cfg, tr, s.queries)
	ep := s.st.Manager().Acquire()
	defer ep.Release()
	cold := newLayerAcc()
	_, res, err := rp.round(cold, ep.Env, ep.ID)
	if err != nil {
		return err
	}
	checkReplay(t, "replay", res, refs)
	acc := newLayerAcc()
	nSpans := len(tr.spans)
	untraced, traced, err := rp.steady(acc, ep.Env, ep.ID, secondsDur(cfg.Seconds/2), 3)
	if err != nil {
		return err
	}
	queryMetrics(m, acc)
	m["storage.faults"] = float64(cold.faults)
	m["trace.overhead_ms"] = ms(durMedian(traced) - durMedian(untraced))
	m["trace.spans"] = float64(len(tr.spans)-nSpans) / float64(acc.rounds)
	return nil
}

func traceRefresh(t *tally, cfg config, tr *tracer, m map[string]float64) error {
	// The service phase: writer and reader as in the measured run, over
	// the traced run's shorter batch stream.
	s, _, _, err := setupChecked(t, cfg, writeDurable(cfg, "service"), 1)
	if err != nil {
		return err
	}
	defer s.close()
	payloads, err := genPayloads(s.gen(), cfg.Seed, cfg.TraceIngests, cfg.BatchOrders)
	if err != nil {
		return err
	}
	var writerPins int64
	m0 := s.svc.Snapshot()
	ws := writePhase(s, payloads, offsets(cfg.Seed, cfg.Clients, len(s.queries)), true, func(int, uint64) {
		if p := s.svc.Snapshot().EpochsPinned; p > writerPins {
			writerPins = p
		}
	})
	m1 := s.svc.Snapshot()
	t.merge(ws.tally)
	t.merge(ws.reads.tally)
	m["server.plan_hit_ratio"] = hitRatio(m0.PlanHits, m0.PlanMisses, m1.PlanHits, m1.PlanMisses)
	m["epoch.pinned_max"] = math.Max(float64(ws.reads.pinnedMax), float64(writerPins))
	m["epoch.wal_syncs_per_ingest"] = float64(ws.walSyncs) / float64(len(payloads))
	if _, err := checkFinalAndRecover(t, s); err != nil {
		return err
	}
	s.close()

	// The replay: a fresh store, and an in-memory twin that validates and
	// applies each batch outside the store. Between consecutive ingests the
	// reader runs one round of the mix on the current epoch, so every
	// round starts on a new epoch with an empty plan cache.
	b, _, _, err := setupChecked(t, cfg, writeDurable(cfg, "replay"), 1)
	if err != nil {
		return err
	}
	defer b.close()
	ir, err := newIngestReplay(tr, b.st, b.dcfg)
	if err != nil {
		return err
	}
	rp := newReplayer(cfg, tr, b.queries)
	acc := newLayerAcc()
	var last []*readResult
	for i := 0; ; i++ {
		ep := b.st.Manager().Acquire()
		_, res, err := rp.round(acc, ep.Env, ep.ID)
		ep.Release()
		if err != nil {
			return err
		}
		last = res
		if i == len(payloads) {
			break
		}
		err = ir.run(i+1, payloads[i])
		t.add(err, fmt.Sprintf("replay ingest %d", i+1))
		if err != nil {
			return err
		}
	}
	refs, err := references(ir.twin, b.queries)
	if err != nil {
		return err
	}
	checkReplay(t, "replay final epoch", last, refs)
	queryMetrics(m, acc)
	m["storage.faults"] = float64(acc.faults) / float64(acc.rounds)
	ingestMetrics(m, ir)

	// Tracing overhead on the final epoch, as on fig9-paged.
	ep := b.st.Manager().Acquire()
	nSpans := len(tr.spans)
	untraced, traced, err := rp.steady(nil, ep.Env, ep.ID, secondsDur(cfg.Seconds/20), 3)
	ep.Release()
	if err != nil {
		return err
	}
	m["trace.overhead_ms"] = ms(durMedian(traced) - durMedian(untraced))
	m["trace.spans"] = float64(len(tr.spans)-nSpans) / float64(len(traced))

	b.close()
	b.st = nil
	var st *epoch.Store
	tr.timed("tpcd.OpenStoreLazy", -1, tr.newReq(), func() { st, _, err = tpcd.OpenStoreLazy(b.dcfg) })
	t.add(err, "replay recovery")
	if err == nil {
		st.Close()
	}
	return nil
}

func hitRatio(h0, m0, h1, m1 int64) float64 {
	h, mi := h1-h0, m1-m0
	if h+mi == 0 {
		return 0
	}
	return float64(h) / float64(h+mi)
}

// checkReplay compares a replayed round's answers with the references.
func checkReplay(t *tally, what string, res []*readResult, refs []*moa.SetVal) {
	for i, rr := range res {
		t.add(tpcd.CompareResults(rr.set, refs[i], rr.q.Ordered), fmt.Sprintf("%s Q%02d", what, rr.q.Num))
	}
}

// queryMetrics turns the measured rounds into per-round (and, for the
// preparation layers, per-read) metrics.
func queryMetrics(m map[string]float64, a *layerAcc) {
	rounds := float64(a.rounds)
	reads := float64(a.reads)
	m["storage.touches"] = float64(a.touches) / rounds
	acct := a.exec - a.execNoPager
	m["storage.accounting_ms"] = ms(acct) / rounds
	if a.touches > 0 {
		m["storage.ns_per_touch"] = float64(acct) / float64(a.touches)
	}
	m["mil.exec_ms"] = ms(a.exec) / rounds
	m["mil.interm_mb"] = float64(a.interm) / (1 << 20) / rounds
	m["mil.peak_mb"] = float64(a.peak) / (1 << 20)
	known := map[string]bool{}
	for _, v := range variantNames {
		known[v] = true
	}
	for v, ns := range a.variantNs {
		name := v
		if !known[v] {
			name = "other"
			fmt.Fprintf(os.Stderr, "perfbench: variant %q reported as other\n", v)
		}
		m["mil.variant."+name+".ms"] += float64(ns) / 1e6 / rounds
		m["mil.variant."+name+".n"] += float64(a.variantN[v]) / rounds
	}
	var alloc, objs, cycles []float64
	var sumGC, sumTot float64
	for _, g := range a.gc {
		alloc = append(alloc, float64(g.allocBytes)/(1<<20))
		objs = append(objs, float64(g.allocObjs))
		cycles = append(cycles, float64(g.cycles))
		sumGC += g.gcCPU
		sumTot += g.totalCPU
	}
	m["gc.alloc_mb"] = median(alloc)
	m["gc.allocs"] = median(objs)
	m["gc.cycles"] = median(cycles)
	if sumTot > 0 {
		m["gc.cpu_frac"] = sumGC / sumTot
	}
	for q, ds := range a.perQuery {
		m[fmt.Sprintf("engine.Q%02d_ms", q)] = ms(durMedian(ds))
	}
	m["moa.parse_us"] = float64(a.parse.Microseconds()) / reads
	m["moa.check_us"] = float64(a.check.Microseconds()) / reads
	m["rewrite.translate_us"] = float64(a.translate.Microseconds()) / reads
	m["moa.materialize_us"] = float64(a.mat.Microseconds()) / reads
	m["rewrite.stmts"] = float64(a.stmts) / reads
	m["bat.accel_builds"] = float64(a.accelBuilds) / rounds
	m["bat.accel_build_ms"] = float64(a.accelNs) / 1e6 / rounds
}

// ingestMetrics turns the replayed ingests into write-path metrics.
func ingestMetrics(m map[string]float64, ia *ingestReplay) {
	var durable []time.Duration
	var plain, ckpt []time.Duration
	for i := range ia.ingest {
		durable = append(durable, ia.ingest[i]-ia.validate[i]-ia.apply[i])
		if ia.checkpoint[i] {
			ckpt = append(ckpt, ia.ingest[i])
		} else {
			plain = append(plain, ia.ingest[i])
		}
	}
	m["tpcd.validate_ms"] = ms(durMedian(ia.validate))
	m["tpcd.apply_ms"] = ms(durMedian(ia.apply))
	m["epoch.durable_ms"] = ms(durMedian(durable))
	if len(ckpt) > 0 && len(plain) > 0 {
		m["epoch.checkpoint_ms"] = ms(durMedian(ckpt) - durMedian(plain))
	}
	m["heapfile.linked_frac"] = ia.linkedFrac
}
