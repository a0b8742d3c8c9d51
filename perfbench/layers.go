package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"syscall"
	"time"

	"repro/internal/epoch"
	"repro/internal/mil"
	"repro/internal/moa"
	"repro/internal/rewrite"
	"repro/internal/storage"
	"repro/internal/tpcd"
)

// span is one timed call into a layer, recorded by the benchmark around the
// layer's public entry point. Spans of one operation share Req; Parent is
// the id of the span that caused it (-1 for an operation's root).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory; they are written out once, at exit. A nil
// tracer records nothing, which is how untraced passes run.
type tracer struct {
	t0    time.Time
	spans []span
	req   int64
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) newReq() int64 {
	if t == nil {
		return 0
	}
	t.req++
	return t.req
}

func (t *tracer) begin(name string, parent int, req int64) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Req: req, Name: name, Start: int64(time.Since(t.t0))})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if t != nil && id >= 0 {
		t.spans[id].End = int64(time.Since(t.t0))
	}
}

func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// timed runs f inside a span and returns its wall time.
func (t *tracer) timed(name string, parent int, req int64, f func()) time.Duration {
	id := t.begin(name, parent, req)
	t0 := time.Now()
	f()
	d := time.Since(t0)
	t.end(id)
	return d
}

var algoUnsafe = regexp.MustCompile(`[^A-Za-z0-9_.-]+`)

// algoName turns a trace Algo string into a metric-name component:
// characters outside [A-Za-z0-9_.-] collapse to "_", e.g.
// "hash-semijoin (intersect)" → "hash-semijoin_intersect".
func algoName(a string) string {
	s := strings.Trim(algoUnsafe.ReplaceAllString(a, "_"), "_")
	if s == "" {
		s = "none"
	}
	if len(s) > 48 {
		s = s[:48]
	}
	return s
}

// layerAcc accumulates the layer costs of the measured query rounds.
type layerAcc struct {
	rounds, reads                int
	parse, check, translate, mat time.Duration
	exec, execNoPager            time.Duration
	stmts                        int
	touches, faults              uint64
	interm, peak                 int64
	accelBuilds                  int
	accelNs                      int64
	variantNs, variantN          map[string]int64
	perQuery                     map[int][]time.Duration
	gc                           []gcSample
}

func newLayerAcc() *layerAcc {
	return &layerAcc{variantNs: map[string]int64{}, variantN: map[string]int64{}, perQuery: map[int][]time.Duration{}}
}

// replayer re-executes a workload's reads through the layer entry points:
// moa.Parse, moa.Check, rewrite.Translate, mil.NewCtx + mil.Exec and
// moa.Materialize. Plans are cached per epoch, as the service's
// epoch-keyed plan cache does, so a read parses only on the first use of
// its query in an epoch.
type replayer struct {
	tr      *tracer
	schema  *moa.Schema
	pager   *storage.Pager
	queries []tpcd.Query
	offset  int

	planEpoch uint64
	plans     map[string]*rewrite.Result
}

// prep returns the cached plan for src in epoch, preparing it on a miss.
func (r *replayer) prep(acc *layerAcc, epoch uint64, src string, parent int, req int64) (*rewrite.Result, error) {
	if r.plans == nil || r.planEpoch != epoch {
		r.plans, r.planEpoch = map[string]*rewrite.Result{}, epoch
	}
	if p, ok := r.plans[src]; ok {
		return p, nil
	}
	var (
		e   moa.Expr
		ck  *moa.Checked
		res *rewrite.Result
		err error
	)
	dParse := r.tr.timed("moa.Parse", parent, req, func() { e, err = moa.Parse(src) })
	if err != nil {
		return nil, err
	}
	dCheck := r.tr.timed("moa.Check", parent, req, func() { ck, err = moa.Check(r.schema, e) })
	if err != nil {
		return nil, err
	}
	dTrans := r.tr.timed("rewrite.Translate", parent, req, func() { res, err = rewrite.Translate(ck) })
	if err != nil {
		return nil, err
	}
	if acc != nil {
		acc.parse += dParse
		acc.check += dCheck
		acc.translate += dTrans
		acc.stmts += len(res.Prog.Stmts)
	}
	r.plans[src] = res
	return res, nil
}

// readResult is one replayed read.
type readResult struct {
	q      tpcd.Query
	plan   *rewrite.Result
	set    *moa.SetVal
	exec   time.Duration
	mat    time.Duration
	traces []mil.StmtTrace
	ctx    *mil.Ctx
}

// read replays one query: prepare (cached), execute with the workload's
// pager, materialize.
func (r *replayer) read(acc *layerAcc, env mil.EnvReader, epoch uint64, q tpcd.Query) (*readResult, error) {
	req := r.tr.newReq()
	root := r.tr.begin(fmt.Sprintf("read Q%02d", q.Num), -1, req)
	defer r.tr.end(root)
	plan, err := r.prep(acc, epoch, q.MOA, root, req)
	if err != nil {
		return nil, err
	}
	rr := &readResult{q: q, plan: plan}
	rr.ctx = mil.NewCtx(context.Background(), mil.Options{Pager: r.pager, Workers: 1})
	var scope *mil.Scope
	rr.exec = r.tr.timed("mil.Exec", root, req, func() { scope, rr.traces, err = mil.Exec(rr.ctx, plan.Prog, env) })
	if err != nil {
		return nil, err
	}
	rr.mat = r.tr.timed("moa.Materialize", root, req, func() { rr.set, err = moa.Materialize(scope, plan.Struct) })
	return rr, err
}

// round replays the 15-query mix once against env. With acc non-nil the
// round is measured: its layer costs accumulate, and every plan is
// executed a second time without the pager, so the difference is the
// fault-accounting cost of the same plan. Returns the wall time of the
// pager-configured reads (the part an untraced round also runs) and the
// round's results.
func (r *replayer) round(acc *layerAcc, env mil.EnvReader, epoch uint64) (time.Duration, []*readResult, error) {
	g0 := readGC()
	t0 := time.Now()
	out := make([]*readResult, len(r.queries))
	for k := range r.queries {
		i := (r.offset + k) % len(r.queries)
		rr, err := r.read(acc, env, epoch, r.queries[i])
		if err != nil {
			return 0, nil, fmt.Errorf("Q%02d: %w", r.queries[i].Num, err)
		}
		out[i] = rr
	}
	wall := time.Since(t0)
	g := readGC().sub(g0)
	if acc == nil {
		return wall, out, nil
	}
	acc.rounds++
	acc.gc = append(acc.gc, g)
	for _, rr := range out {
		acc.reads++
		acc.exec += rr.exec
		acc.mat += rr.mat
		acc.faults += rr.ctx.PageFaults()
		acc.touches += rr.ctx.PageFaults() + rr.ctx.PageHits()
		acc.interm += rr.ctx.IntermBytes
		if rr.ctx.PeakBytes > acc.peak {
			acc.peak = rr.ctx.PeakBytes
		}
		acc.perQuery[rr.q.Num] = append(acc.perQuery[rr.q.Num], rr.exec+rr.mat)
		for _, st := range rr.traces {
			a := algoName(st.Algo)
			acc.variantNs[a] += int64(st.Elapsed)
			acc.variantN[a]++
			acc.accelBuilds += st.AccelBuilds
			acc.accelNs += st.AccelBuildNs
		}
		req := r.tr.newReq()
		var err error
		ctx := mil.NewCtx(context.Background(), mil.Options{Workers: 1})
		d := r.tr.timed(fmt.Sprintf("mil.Exec nopager Q%02d", rr.q.Num), -1, req, func() {
			_, _, err = mil.Exec(ctx, rr.plan.Prog, env)
		})
		if err != nil {
			return 0, nil, fmt.Errorf("Q%02d without pager: %w", rr.q.Num, err)
		}
		acc.execNoPager += d
	}
	return wall, out, nil
}

// steady alternates untraced and traced rounds on one epoch until budget
// is spent (at least minRounds of each) and returns both wall times; the
// difference of their medians is the tracing overhead. Traced rounds
// accumulate into acc when it is non-nil.
func (r *replayer) steady(acc *layerAcc, env mil.EnvReader, epoch uint64, budget time.Duration, minRounds int) (untraced, traced []time.Duration, err error) {
	tr := r.tr
	deadline := time.Now().Add(budget)
	for len(traced) < minRounds || time.Now().Before(deadline) {
		r.tr = nil // an untraced round records no spans
		u, _, err := r.round(nil, env, epoch)
		r.tr = tr
		if err != nil {
			return nil, nil, err
		}
		t, _, err := r.round(acc, env, epoch)
		if err != nil {
			return nil, nil, err
		}
		untraced = append(untraced, u)
		traced = append(traced, t)
	}
	return untraced, traced, nil
}

// ingestReplay replays refresh batches through the write-path entry
// points: tpcd.ValidateRefresh and tpcd.ApplyRefresh on an in-memory twin of
// the store (the same generator database, kept in step), then
// epoch.Store.Ingest on the store itself.
type ingestReplay struct {
	tr         *tracer
	twin       *tpcd.DB
	twinEnv    mil.Env
	st         *epoch.Store
	dir        string
	every      uint64
	validate   []time.Duration
	apply      []time.Duration
	ingest     []time.Duration
	checkpoint []bool
	linkedFrac float64
	prevSnap   map[uint64]int64 // the previous checkpoint's files by inode
}

func newIngestReplay(tr *tracer, st *epoch.Store, dcfg tpcd.DurableConfig) (*ingestReplay, error) {
	ir := &ingestReplay{tr: tr, twin: tpcd.Generate(dcfg.SF, dcfg.Seed), st: st, dir: dcfg.Dir, every: uint64(dcfg.SnapshotEvery)}
	ir.twinEnv, _ = tpcd.Load(ir.twin)
	return ir, ir.noteCheckpoint()
}

// run replays batch number n (1-based).
func (ir *ingestReplay) run(n int, payload []byte) error {
	req := ir.tr.newReq()
	root := ir.tr.begin(fmt.Sprintf("ingest %d", n), -1, req)
	defer ir.tr.end(root)
	batch, err := tpcd.DecodeRefresh(payload)
	if err != nil {
		return err
	}
	dv := ir.tr.timed("tpcd.ValidateRefresh", root, req, func() { err = tpcd.ValidateRefresh(ir.twin, batch) })
	if err != nil {
		return fmt.Errorf("twin validate: %w", err)
	}
	da := ir.tr.timed("tpcd.ApplyRefresh", root, req, func() { ir.twinEnv, _, err = tpcd.ApplyRefresh(ir.twin, ir.twinEnv, batch) })
	if err != nil {
		return fmt.Errorf("twin apply: %w", err)
	}
	var pub *epoch.Epoch
	di := ir.tr.timed("epoch.Store.Ingest", root, req, func() { pub, err = ir.st.Ingest(payload) })
	if err != nil {
		return err
	}
	ckpt := pub.ID%ir.every == 0
	ir.validate = append(ir.validate, dv)
	ir.apply = append(ir.apply, da)
	ir.ingest = append(ir.ingest, di)
	ir.checkpoint = append(ir.checkpoint, ckpt)
	if ckpt {
		return ir.noteCheckpoint()
	}
	return nil
}

// checkpointInodes returns the inodes and byte sizes of the files of the
// newest columnar checkpoint (snap-<epoch>.d) in dir.
func checkpointInodes(dir string) (map[uint64]int64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var snaps []string
	for _, e := range ents {
		if e.IsDir() && strings.HasPrefix(e.Name(), "snap-") && strings.HasSuffix(e.Name(), ".d") {
			snaps = append(snaps, e.Name())
		}
	}
	if len(snaps) == 0 {
		return nil, fmt.Errorf("no columnar checkpoint in %s", dir)
	}
	sort.Strings(snaps)
	files, err := os.ReadDir(filepath.Join(dir, snaps[len(snaps)-1]))
	if err != nil {
		return nil, err
	}
	out := map[uint64]int64{}
	for _, f := range files {
		fi, err := f.Info()
		if err != nil {
			return nil, err
		}
		if st, ok := fi.Sys().(*syscall.Stat_t); ok && fi.Mode().IsRegular() {
			out[st.Ino] = fi.Size()
		}
	}
	return out, nil
}

// noteCheckpoint records the checkpoint just written and, when a previous
// one was recorded, the share of its bytes hard-linked from it.
func (ir *ingestReplay) noteCheckpoint() error {
	cur, err := checkpointInodes(ir.dir)
	if err != nil {
		return err
	}
	if ir.prevSnap != nil {
		var linked, total int64
		for ino, sz := range cur {
			total += sz
			if _, ok := ir.prevSnap[ino]; ok {
				linked += sz
			}
		}
		if total > 0 {
			ir.linkedFrac = float64(linked) / float64(total)
		}
	}
	ir.prevSnap = cur
	return nil
}
