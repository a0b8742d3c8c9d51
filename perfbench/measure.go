package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/moa"
	"repro/internal/tpcd"
)

// endToEndUnits maps each end-to-end metric to its unit; BENCHMARK.json
// lists the same.
var endToEndUnits = map[string]string{
	"setup_s":             "s",
	"qps":                 "1/s",
	"query_ms.p50":        "ms",
	"query_ms.p99":        "ms",
	"success_ratio":       "ratio",
	"peak_rss_mb":         "MiB",
	"ingest_ms.p50":       "ms",
	"ingest_ms.mean":      "ms",
	"recovery_s":          "s",
	"write_kb_per_ingest": "KiB",
}

func readDurable(cfg config) tpcd.DurableConfig {
	return tpcd.DurableConfig{SF: cfg.ReadSF, Seed: cfg.Seed, SnapshotEvery: cfg.SnapshotEvery}
}

func writeDurable(cfg config, name string) tpcd.DurableConfig {
	return tpcd.DurableConfig{
		Dir: filepath.Join(cfg.WorkDir, name), SF: cfg.WriteSF, Seed: cfg.Seed,
		SnapshotEvery: cfg.SnapshotEvery, Storage: tpcd.StorageMmap,
	}
}

// runMeasured is the untraced run that yields the end-to-end metrics.
//
// Set-up (timed, several times) opens the workload's store and service and
// checks the cold round's 15 answers. fig9-paged also opens a separate SF
// 0.005 mmap store for its writer. The run is then cfg.Blocks blocks, so
// that every metric samples the whole run:
//
//   - fig9-paged: the closed-loop clients read for --seconds/blocks, then
//     the writer issues the block's batches alone — the refresh-mixed
//     writer without its reader;
//   - refresh-mixed: one writer issues the block's batches while one
//     reader runs the query mix until the writer is done.
//
// Each block ends by checking the final epoch's answers, closing the
// writer's store, timing one recovery and checking the recovered epoch's
// answers; the next block writes to the recovered store.
func runMeasured(cfg config) (*result, error) {
	var t tally
	var reader, writer *served
	var setupS float64
	var err error
	if cfg.Workload == wRefreshMixed {
		if writer, _, setupS, err = setupChecked(&t, cfg, writeDurable(cfg, "store"), cfg.Setups); err != nil {
			return nil, err
		}
		reader = writer
	} else {
		if reader, _, setupS, err = setupChecked(&t, cfg, readDurable(cfg), cfg.Setups); err != nil {
			return nil, err
		}
		defer reader.close()
		if writer, _, _, err = setupChecked(&t, cfg, writeDurable(cfg, "writer"), 1); err != nil {
			return nil, err
		}
	}
	defer writer.close()
	payloads, err := genPayloads(writer.gen(), cfg.Seed, cfg.Ingests, cfg.BatchOrders)
	if err != nil {
		return nil, err
	}
	offs := offsets(cfg.Seed, cfg.Clients, len(reader.queries))

	reads, ws := &readStats{}, &writeStats{}
	var recS []float64
	for b := 0; b < cfg.Blocks; b++ {
		lo, hi := ingestBlock(len(payloads), cfg.Blocks, b)
		if cfg.Workload == wRefreshMixed {
			bw := writePhase(writer, payloads[lo:hi], offs, false, nil)
			reads.add(bw.reads)
			ws.add(bw)
		} else {
			minReads := (cfg.MinReads + cfg.Blocks - 1) / cfg.Blocks
			reads.add(readLoop(reader.svc, reader.queries, offs, secondsDur(cfg.Seconds/float64(cfg.Blocks)), minReads, nil, false))
			ws.add(writePhase(writer, payloads[lo:hi], nil, false, nil))
		}
		rec, err := checkFinalAndRecover(&t, writer)
		if err != nil {
			return nil, fmt.Errorf("block %d: %w", b+1, err)
		}
		recS = append(recS, rec)
	}
	t.merge(reads.tally)
	t.merge(ws.tally)

	w := ws.wcharBytes
	if w <= 0 {
		t.add(fmt.Errorf("/proc/self/io wchar unavailable or zero"), "write accounting")
	}
	m := map[string]metric{}
	put := func(name string, v float64) { m[name] = metric{v, endToEndUnits[name]} }
	put("setup_s", setupS)
	put("qps", float64(reads.ok)/reads.elapsed.Seconds())
	put("query_ms.p50", quantile(reads.latMs, 0.50))
	put("query_ms.p99", quantile(reads.latMs, 0.99))
	put("ingest_ms.p50", quantile(ws.ingestMs, 0.50))
	put("ingest_ms.mean", mean(ws.ingestMs))
	put("recovery_s", median(recS))
	put("write_kb_per_ingest", float64(w)/1024/float64(len(payloads)))
	put("peak_rss_mb", peakRSSMiB())
	put("success_ratio", float64(t.attempted-t.failed)/float64(t.attempted))
	return finish(t, m), nil
}

func secondsDur(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// setupChecked runs the timed set-up setups times, keeps the last, and
// checks its cold round's answers against the reference evaluator. It
// returns the references of the store's genesis epoch.
func setupChecked(t *tally, cfg config, dcfg tpcd.DurableConfig, setups int) (*served, []*moa.SetVal, float64, error) {
	s, cold, setupS, err := setupMedian(setups, dcfg)
	if err != nil {
		return nil, nil, 0, fmt.Errorf("set-up: %w", err)
	}
	refs, err := references(s.gen(), s.queries)
	if err != nil {
		s.close()
		return nil, nil, 0, err
	}
	checkAnswers(t, "set-up", s.queries, cold, refs)
	return s, refs, setupS, nil
}

// checkFinalAndRecover checks the final epoch's answers against the
// writer-side database the store kept in step, closes the store and times
// one recovery of its directory. The recovered store is served again
// through a new service, whose answers are checked too. It returns the
// recovery time in seconds.
func checkFinalAndRecover(t *tally, s *served) (float64, error) {
	refs, err := references(s.gen(), s.queries)
	if err != nil {
		return 0, err
	}
	checkAnswers(t, "final epoch", s.queries, runAll(s.svc, s.queries), refs)
	t.add(s.st.Close(), "close store")
	// Drop the served state, so recovery runs on a heap holding only what
	// it builds itself.
	s.st, s.svc, s.gen = nil, nil, nil
	runtime.GC()
	t0 := time.Now()
	st, gen, err := tpcd.OpenStoreLazy(s.dcfg)
	d := time.Since(t0)
	t.add(err, "recovery")
	if err != nil {
		return 0, fmt.Errorf("recovery: %w", err)
	}
	// Materialize the writer-side database now, so no later ingest is
	// charged for it.
	gen()
	s.st, s.gen, s.svc = st, gen, newService(st)
	checkAnswers(t, "recovered", s.queries, runAll(s.svc, s.queries), refs)
	return d.Seconds(), nil
}
