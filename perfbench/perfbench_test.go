package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// tinyConfig shrinks a workload to smoke-test size: small databases, one
// set-up, two blocks of 8 ingests after the first 5, one recovery per
// block (each replaying a WAL tail past a checkpoint).
func tinyConfig(t *testing.T, workload string, trace bool) config {
	t.Helper()
	cfg, err := defaultConfig(workload, 7, 0.4, trace)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	cfg.ReadSF, cfg.WriteSF = 0.004, 0.002
	cfg.Blocks, cfg.Ingests, cfg.TraceIngests = 2, 21, 13
	cfg.Setups, cfg.MinReads = 1, 0
	cfg.WorkDir = filepath.Join(dir, "work")
	cfg.Spans = filepath.Join(dir, "spans.jsonl")
	return cfg
}

// runTiny runs one tiny benchmark and returns its result line.
func runTiny(t *testing.T, cfg config) result {
	t.Helper()
	var out bytes.Buffer
	if err := run(cfg, &out); err != nil {
		t.Fatalf("%s trace=%v: %v", cfg.Workload, cfg.Trace, err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("want a host line and a result line, got %q", out.String())
	}
	var host map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[0]), &host); err != nil || host["host"] == nil || host["config"] == nil {
		t.Fatalf("bad host line %q: %v", lines[0], err)
	}
	var res result
	dec := json.NewDecoder(strings.NewReader(lines[1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&res); err != nil {
		t.Fatalf("bad result line %q: %v", lines[1], err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("%s trace=%v: correct=%v attempted=%d failed=%d", cfg.Workload, cfg.Trace, res.Correct, res.Attempted, res.Failed)
	}
	if _, err := os.Stat(cfg.WorkDir); !os.IsNotExist(err) {
		t.Errorf("work directory left behind: %v", err)
	}
	return res
}

// benchmarkMetrics reads the metric lists of the repository's BENCHMARK.json.
func benchmarkMetrics(t *testing.T) (endToEnd, perLayer map[string]string, workloads []string) {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, m := range spec.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	for _, w := range spec.Workloads {
		workloads = append(workloads, w.Name)
	}
	return endToEnd, perLayer, workloads
}

func sameMetrics(t *testing.T, what string, got map[string]metric, want map[string]string) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: %d metrics, BENCHMARK.json lists %d", what, len(got), len(want))
	}
	for name, m := range got {
		if u, ok := want[name]; !ok || u != m.Unit {
			t.Errorf("%s: metric %s (%s) not in BENCHMARK.json as listed (%q)", what, name, m.Unit, u)
		}
	}
}

// TestSmoke runs every workload untraced and traced at a tiny size: all
// answers check, every metric BENCHMARK.json names is reported with its
// unit, and the traced runs show the workloads exercise different layers.
func TestSmoke(t *testing.T) {
	endToEnd, perLayer, workloads := benchmarkMetrics(t)
	if strings.Join(workloads, ",") != strings.Join([]string{wFig9Paged, wRefreshMixed}, ",") {
		t.Fatalf("BENCHMARK.json workloads %v", workloads)
	}
	layers := map[string]map[string]metric{}
	for _, w := range workloads {
		res := runTiny(t, tinyConfig(t, w, false))
		sameMetrics(t, w, res.Metrics, endToEnd)
		for name, m := range res.Metrics {
			if m.Value <= 0 {
				t.Errorf("%s: %s = %v, want > 0", w, name, m.Value)
			}
		}
		res = runTiny(t, tinyConfig(t, w, true))
		sameMetrics(t, w+" traced", res.Metrics, perLayer)
		layers[w] = res.Metrics
	}
	if v := layers[wFig9Paged]["storage.touches"].Value; v <= 0 {
		t.Errorf("fig9-paged storage.touches = %v, want > 0", v)
	}
	fig9Hits := layers[wFig9Paged]["server.plan_hit_ratio"].Value
	if v := layers[wRefreshMixed]["server.plan_hit_ratio"].Value; v >= fig9Hits/2 {
		t.Errorf("refresh-mixed plan_hit_ratio %v not far below fig9-paged's %v", v, fig9Hits)
	}
	// epoch.durable_ms is a difference of two timings and may read below
	// zero at this size, so it is not checked here.
	for _, name := range []string{"tpcd.apply_ms", "epoch.wal_syncs_per_ingest", "moa.parse_us", "rewrite.stmts"} {
		if v := layers[wRefreshMixed][name].Value; v <= 0 {
			t.Errorf("refresh-mixed %s = %v, want > 0", name, v)
		}
	}
}

func TestAlgoName(t *testing.T) {
	for in, want := range map[string]string{
		"hash-semijoin (intersect)": "hash-semijoin_intersect",
		"datavector-join":           "datavector-join",
		"":                          "none",
		"a/b c":                     "a_b_c",
	} {
		if got := algoName(in); got != want {
			t.Errorf("algoName(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestIngestCount(t *testing.T) {
	for _, blocks := range []int{1, 2, 5} {
		for _, n := range []int{1, 13, 21, 60, 120, 125, 200} {
			c := ingestCount(n, 8, blocks)
			if c%8 != 5 || c < 5+8*blocks || (c-5)%(8*blocks) != 0 {
				t.Errorf("ingestCount(%d, 8, %d) = %d, want 5 mod 8 and whole periods per block", n, blocks, c)
			}
			// The blocks cover every batch once, and each ends 5 past a
			// checkpoint, so every recovery replays the same WAL tail.
			next := 0
			for b := 0; b < blocks; b++ {
				lo, hi := ingestBlock(c, blocks, b)
				if lo != next || hi <= lo || hi%8 != 5 {
					t.Errorf("ingestBlock(%d, %d, %d) = [%d, %d)", c, blocks, b, lo, hi)
				}
				next = hi
			}
			if next != c {
				t.Errorf("%d blocks cover %d of %d batches", blocks, next, c)
			}
		}
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 6, 7, 8, 9, 10}
	if q := quantile(xs, 0.5); q != 5 {
		t.Errorf("p50 = %v, want 5", q)
	}
	if q := quantile(xs, 0.99); q != 10 {
		t.Errorf("p99 = %v, want 10", q)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
	if m := mean([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("mean = %v, want 2.5", m)
	}
}
