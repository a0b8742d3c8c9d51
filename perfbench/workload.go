package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/engine"
	"repro/internal/epoch"
	"repro/internal/moa"
	"repro/internal/server"
	"repro/internal/storage"
	"repro/internal/tpcd"
)

// config fixes one benchmark run. defaultConfig gives the sizes the
// workloads are defined at; the smoke test shrinks them.
type config struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Seconds  float64 `json:"seconds"`
	Trace    bool    `json:"trace"`

	ReadSF  float64 `json:"read_sf"`  // fig9-paged's read database
	WriteSF float64 `json:"write_sf"` // the writer's database, on both workloads
	Clients int     `json:"clients"`  // closed-loop readers
	// MinReads extends a timed read phase until it holds this many
	// samples, so query_ms.p99 has at least ten samples beyond it.
	MinReads int    `json:"min_reads"`
	Pager    bool   `json:"pager"`   // recorded only: the simulated pager (unbounded pool, 4 KiB pages) is always on
	Storage  string `json:"storage"` // storage mode of the workload's served store

	// Blocks splits a measured run into rounds of reads, ingests and
	// recoveries, so every metric samples the whole run rather than one
	// stretch of it.
	Blocks        int `json:"blocks"`
	Ingests       int `json:"ingests"`        // refresh batches the writer issues, over all blocks
	TraceIngests  int `json:"trace_ingests"`  // refresh batches replayed by the traced run
	BatchOrders   int `json:"batch_orders"`   // orders per refresh batch
	SnapshotEvery int `json:"snapshot_every"` // checkpoint every N ingests
	Setups        int `json:"setups"`         // set-ups timed per run (median reported)

	WorkDir string `json:"-"` // scratch data directories, removed at exit
	Spans   string `json:"-"` // where the traced run writes its spans
}

const (
	wFig9Paged    = "fig9-paged"
	wRefreshMixed = "refresh-mixed"
)

// ingestsPerSecond sizes the refresh-mixed writer so its blocks last about
// --seconds on a 2-vCPU host, and fig9IngestsPerSecond the fig9-paged
// writer-only blocks; the counts are functions of --seconds alone, so every
// run of a configuration replays the same number of batches.
const (
	ingestsPerSecond     = 11
	fig9IngestsPerSecond = 7
)

// ingestCount rounds n to the nearest count that is 5 modulo the checkpoint
// period and whose remaining batches split evenly into blocks of whole
// checkpoint periods: every block then ends 5 batches past a checkpoint,
// so each recovery replays the same WAL tail.
func ingestCount(n, every, blocks int) int {
	k := int(math.Round(float64(n-5) / float64(every*blocks)))
	if k < 1 {
		k = 1
	}
	return k*every*blocks + 5
}

// ingestBlock is the half-open range of batches block b of blocks issues:
// the first block also issues the 5 that offset the stream from the
// checkpoint period.
func ingestBlock(total, blocks, b int) (lo, hi int) {
	per := (total - 5) / blocks
	lo, hi = 5+b*per, 5+(b+1)*per
	if b == 0 {
		lo = 0
	}
	return lo, hi
}

func defaultConfig(workload string, seed int64, seconds float64, trace bool) (config, error) {
	c := config{
		Workload: workload, Seed: seed, Seconds: seconds, Trace: trace,
		ReadSF: 0.02, WriteSF: 0.005, Clients: 2, MinReads: 1000, Pager: true, Storage: tpcd.StorageSim,
		Blocks: 9, BatchOrders: 5, SnapshotEvery: 8, Setups: 9,
		WorkDir: filepath.Join(".bench_build", "work", fmt.Sprintf("%s-%d", workload, os.Getpid())),
		Spans:   filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-seed%d.jsonl", workload, seed)),
	}
	c.TraceIngests = ingestCount(21, c.SnapshotEvery, 1)
	switch workload {
	case wFig9Paged:
		c.Setups, c.Blocks = 3, 8
		c.Ingests = ingestCount(int(seconds*fig9IngestsPerSecond), c.SnapshotEvery, c.Blocks)
	case wRefreshMixed:
		c.Clients = 1
		c.Storage = tpcd.StorageMmap
		c.Ingests = ingestCount(int(seconds*ingestsPerSecond), c.SnapshotEvery, c.Blocks)
	default:
		return c, fmt.Errorf("unknown workload %q (want %s or %s)", workload, wFig9Paged, wRefreshMixed)
	}
	return c, nil
}

// tally counts attempted and failed operations: queries, ingests and answer
// checks alike. A shed, timeout, error or wrong answer is a failure.
type tally struct {
	attempted, failed int64
	notes             []string
}

func (t *tally) add(err error, what string) {
	t.attempted++
	if err != nil {
		t.failed++
		if len(t.notes) < 8 {
			t.notes = append(t.notes, fmt.Sprintf("%s: %v", what, err))
		}
	}
}

func (t *tally) merge(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	for _, n := range o.notes {
		if len(t.notes) < 8 {
			t.notes = append(t.notes, n)
		}
	}
}

// serviceConfig is moaserve's default service configuration: sequential
// queries (Workers 1), slots = GOMAXPROCS, a 256 MiB admission budget.
func serviceConfig() server.Config {
	return server.Config{Workers: 1, MemBudgetBytes: 256 << 20}
}

// served is one opened store with the service over it.
type served struct {
	st      *epoch.Store
	gen     func() *tpcd.DB
	svc     *server.Service
	queries []tpcd.Query
	dcfg    tpcd.DurableConfig
}

func (s *served) close() {
	if s != nil && s.st != nil {
		s.st.Close()
		s.st = nil
	}
}

// newService builds the service the way moaserve does over an open store,
// with moaserve's default simulated pager.
func newService(st *epoch.Store) *server.Service {
	db := engine.New(tpcd.Schema(), st.Manager().Current().Env)
	db.Pager = storage.NewPager(0, 0)
	svc := server.New(db, serviceConfig())
	svc.AttachStore(st)
	return svc
}

// openServed is the timed set-up: open (and for mmap, checkpoint) the
// store, materialize the writer-side database, build the service and run
// one cold round of the 15 queries — accelerator builds, cold faults and
// plan-cache fill are set-up work, not steady-state serving. The cold
// round's results are returned for answer checking.
func openServed(dcfg tpcd.DurableConfig) (*served, []*engine.Result, time.Duration, error) {
	if dcfg.Dir != "" {
		if err := os.RemoveAll(dcfg.Dir); err != nil {
			return nil, nil, 0, err
		}
		if err := os.MkdirAll(dcfg.Dir, 0o755); err != nil {
			return nil, nil, 0, err
		}
	}
	t0 := time.Now()
	st, gen, err := tpcd.OpenStoreLazy(dcfg)
	if err != nil {
		return nil, nil, 0, err
	}
	s := &served{st: st, gen: gen, queries: tpcd.Queries(gen()), dcfg: dcfg}
	s.svc = newService(st)
	res := make([]*engine.Result, len(s.queries))
	for i, q := range s.queries {
		if res[i], err = s.svc.Query(context.Background(), q.MOA); err != nil {
			s.close()
			return nil, nil, 0, fmt.Errorf("Q%02d: %w", q.Num, err)
		}
	}
	return s, res, time.Since(t0), nil
}

// setupMedian runs the set-up cfg.Setups times (each from scratch, on a
// fresh data directory) and keeps the last; setup_s is the median.
func setupMedian(setups int, dcfg tpcd.DurableConfig) (*served, []*engine.Result, float64, error) {
	var times []float64
	var s *served
	var res []*engine.Result
	for i := 0; i < setups; i++ {
		s.close()
		s, res = nil, nil
		runtime.GC()
		debug.FreeOSMemory()
		var d time.Duration
		var err error
		if s, res, d, err = openServed(dcfg); err != nil {
			return nil, nil, 0, err
		}
		times = append(times, d.Seconds())
	}
	return s, res, median(times), nil
}

// references evaluates the 15 queries directly over the object graph.
func references(db *tpcd.DB, qs []tpcd.Query) ([]*moa.SetVal, error) {
	out := make([]*moa.SetVal, len(qs))
	for i, q := range qs {
		ref, err := tpcd.Reference(db, q.Num)
		if err != nil {
			return nil, fmt.Errorf("reference Q%02d: %w", q.Num, err)
		}
		out[i] = ref
	}
	return out, nil
}

// checkAnswers compares every result with the reference evaluator; each
// query is one attempted operation.
func checkAnswers(t *tally, what string, qs []tpcd.Query, got []*engine.Result, refs []*moa.SetVal) {
	for i, q := range qs {
		var err error
		switch {
		case got[i] == nil:
			err = fmt.Errorf("no result")
		default:
			err = tpcd.CompareResults(got[i].Set, refs[i], q.Ordered)
		}
		t.add(err, fmt.Sprintf("%s Q%02d", what, q.Num))
	}
}

// runAll executes the 15 queries once, sequentially, through svc.
func runAll(svc *server.Service, qs []tpcd.Query) []*engine.Result {
	out := make([]*engine.Result, len(qs))
	for i, q := range qs {
		out[i], _ = svc.Query(context.Background(), q.MOA)
	}
	return out
}

// offsets spreads the clients' start positions in the 15-query mix from
// the seed, so clients are never in lockstep on the same query.
func offsets(seed int64, clients, n int) []int {
	base := rand.New(rand.NewSource(seed)).Intn(n)
	out := make([]int, clients)
	for i := range out {
		out[i] = (base + i*n/clients) % n
	}
	return out
}

// readStats is what the closed-loop readers observed.
type readStats struct {
	latMs   []float64 // one sample per attempted query; +Inf for a failure
	ok      int64
	tally   tally
	elapsed time.Duration
	// pinnedMax is the largest EpochsPinned a reader saw after a query.
	pinnedMax int64
}

// add appends another read phase's latencies, counts and time.
func (r *readStats) add(o *readStats) {
	r.latMs = append(r.latMs, o.latMs...)
	r.ok += o.ok
	r.tally.merge(o.tally)
	r.elapsed += o.elapsed
}

// readLoop runs closed-loop clients — each sends its next query only when
// the previous one returned — for dur and until minReads queries were
// sent, or with dur 0 until stop is closed.
func readLoop(svc *server.Service, qs []tpcd.Query, offs []int, dur time.Duration, minReads int, stop <-chan struct{}, samplePins bool) *readStats {
	type client struct {
		lat       []float64
		tally     tally
		pinnedMax int64
	}
	cs := make([]client, len(offs))
	var wg sync.WaitGroup
	var sent atomic.Int64
	var deadline time.Time
	if dur > 0 {
		// A timed read phase starts from a collected heap, so the set-up's
		// garbage is not charged to it.
		runtime.GC()
		deadline = time.Now().Add(dur)
	}
	start := time.Now()
	for ci := range offs {
		wg.Add(1)
		go func(c *client, off int) {
			defer wg.Done()
			for k := 0; ; k++ {
				if !deadline.IsZero() && !time.Now().Before(deadline) && sent.Load() >= int64(minReads) {
					return
				}
				select {
				case <-stop:
					return
				default:
				}
				q := qs[(off+k)%len(qs)]
				sent.Add(1)
				t0 := time.Now()
				_, err := svc.Query(context.Background(), q.MOA)
				d := time.Since(t0)
				c.tally.add(err, fmt.Sprintf("Q%02d", q.Num))
				if err != nil {
					c.lat = append(c.lat, math.Inf(1))
				} else {
					c.lat = append(c.lat, ms(d))
				}
				if samplePins {
					if p := svc.Snapshot().EpochsPinned; p > c.pinnedMax {
						c.pinnedMax = p
					}
				}
			}
		}(&cs[ci], offs[ci])
	}
	wg.Wait()
	rs := &readStats{elapsed: time.Since(start)}
	for _, c := range cs {
		rs.latMs = append(rs.latMs, c.lat...)
		rs.tally.merge(c.tally)
		if c.pinnedMax > rs.pinnedMax {
			rs.pinnedMax = c.pinnedMax
		}
	}
	rs.ok = rs.tally.attempted - rs.tally.failed
	return rs
}

// genPayloads pre-generates the writer's refresh batches from the seed.
// GenRefresh reads only data that is immutable after generation, so the
// batches do not depend on how many were applied before them.
func genPayloads(db *tpcd.DB, seed int64, n, orders int) ([][]byte, error) {
	out := make([][]byte, n)
	for i := range out {
		p, err := tpcd.EncodeRefresh(tpcd.GenRefresh(db, seed*1_000_003+int64(i)+1, orders))
		if err != nil {
			return nil, err
		}
		out[i] = p
	}
	return out, nil
}

// writeStats is what the writer phase observed.
type writeStats struct {
	ingestMs   []float64
	tally      tally
	elapsed    time.Duration
	wcharBytes int64
	reads      *readStats // nil without a concurrent reader
	walSyncs   int64
}

// add appends another writer phase's latencies, counts and bytes; its
// concurrent reads are added to a readStats separately.
func (w *writeStats) add(o *writeStats) {
	w.ingestMs = append(w.ingestMs, o.ingestMs...)
	w.tally.merge(o.tally)
	w.wcharBytes += o.wcharBytes
}

// writePhase issues the batches one by one through Service.Ingest, with an
// optional closed-loop reader running the query mix until the writer is
// done. after, when set, runs after each ingest, outside its timing.
func writePhase(s *served, payloads [][]byte, readerOffs []int, samplePins bool, after func(i int, epochID uint64)) *writeStats {
	ws := &writeStats{}
	runtime.GC()
	stop := make(chan struct{})
	readDone := make(chan *readStats, 1)
	if len(readerOffs) > 0 {
		go func() { readDone <- readLoop(s.svc, s.queries, readerOffs, 0, 0, stop, samplePins) }()
	}
	syncs0 := s.st.WALSyncs()
	w0 := wchar()
	start := time.Now()
	for i, p := range payloads {
		t0 := time.Now()
		id, err := s.svc.Ingest(p)
		d := time.Since(t0)
		ws.tally.add(err, fmt.Sprintf("ingest %d", i+1))
		if err != nil {
			ws.ingestMs = append(ws.ingestMs, math.Inf(1))
			continue
		}
		ws.ingestMs = append(ws.ingestMs, ms(d))
		if after != nil {
			after(i, id)
		}
	}
	ws.elapsed = time.Since(start)
	ws.wcharBytes = wchar() - w0
	ws.walSyncs = s.st.WALSyncs() - syncs0
	close(stop)
	if len(readerOffs) > 0 {
		ws.reads = <-readDone
	}
	return ws
}
