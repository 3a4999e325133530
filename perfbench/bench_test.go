package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime/pprof"
	"slices"
	"strings"
	"testing"
	"time"

	"github.com/duoquest/duoquest/internal/sqlexec"
	"github.com/duoquest/duoquest/internal/sqlir"
	"github.com/duoquest/duoquest/internal/storage"
	"github.com/duoquest/duoquest/internal/tsq"
)

func TestTailQuantileLeavesTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {19, 0}, {20, 0.5}, {99, 0.5}, {100, 0.9}, {199, 0.9},
		{200, 0.95}, {999, 0.95}, {1000, 0.99}, {9999, 0.99}, {10000, 0.999},
	} {
		got := tailQuantile(tc.n)
		if got != tc.want {
			t.Errorf("tailQuantile(%d) = %g, want %g", tc.n, got, tc.want)
		}
		if got > 0 {
			if beyond := tc.n - int(math.Ceil(got*float64(tc.n))); beyond < 10 {
				t.Errorf("tailQuantile(%d) = %g leaves %d samples beyond it", tc.n, got, beyond)
			}
		}
	}
}

func TestQuantileNearestRank(t *testing.T) {
	var s []time.Duration
	for i := 1; i <= 200; i++ {
		s = append(s, time.Duration(i))
	}
	for _, tc := range []struct {
		q    float64
		want time.Duration
	}{{0.5, 100}, {0.95, 190}, {0.99, 198}, {1, 200}, {0, 1}} {
		if got := quantile(s, tc.q); got != tc.want {
			t.Errorf("quantile(%g) = %d, want %d", tc.q, got, tc.want)
		}
	}
	if quantile(nil, 0.5) != 0 {
		t.Error("quantile of no samples is not 0")
	}
}

// TestEveryInternalPackageHasALayer keeps the profile attribution complete:
// a package added under internal/ must be given a layer here.
func TestEveryInternalPackageHasALayer(t *testing.T) {
	known := map[string]bool{callerLayer: true}
	for _, l := range layerShares {
		known[l] = true
	}
	seen := map[string]bool{}
	root := filepath.Join("..", "internal")
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		rel, _ := filepath.Rel(root, filepath.Dir(path))
		rel = filepath.ToSlash(rel)
		if seen[rel] {
			return nil
		}
		seen[rel] = true
		layer, ok := packageLayers[rel]
		if !ok {
			t.Errorf("internal/%s has no layer in packageLayers", rel)
		} else if !known[layer] {
			t.Errorf("internal/%s maps to %q, which is not a reported layer", rel, layer)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for pkg := range packageLayers {
		if !seen[pkg] {
			t.Errorf("packageLayers names internal/%s, which does not exist", pkg)
		}
	}
}

func TestAttribute(t *testing.T) {
	in := func(s string) string { return modulePrefix + "internal/" + s }
	for _, tc := range []struct {
		stack []string // leaf first
		want  string
	}{
		{[]string{"runtime.mallocgc", in("sqlir.(*Query).Clone"), in("enumerate.(*Enumerator).nextStep")}, "enumerate"},
		{[]string{in("tsq.(*TSQ).Satisfies"), in("verify.(*Verifier).verifyByOrder")}, "verify"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, layerGC},
		{[]string{"runtime.gcAssistAlloc", "runtime.mallocgc", in("sqlexec.filter")}, layerGC},
		{[]string{in("storage/segment.(*Store).Load"), "main.setup"}, "storage"},
		{[]string{in("guidance.Normalize[go.shape.struct { github.com/x/y.Z }]"), in("guidance.(*LexicalModel).Keywords")}, "guidance"},
		{[]string{modulePrefix + "perfbench.issue", "main.main"}, layerBench},
		{[]string{"runtime.futex", "runtime.schedule"}, layerOther},
	} {
		if got := attribute(tc.stack); got != tc.want {
			t.Errorf("attribute(%v) = %q, want %q", tc.stack, got, tc.want)
		}
	}
	keys := inclusiveKeys([]string{
		in("verify.existsKey"), in("verify.(*Verifier).verifyByRow.func1"), in("verify.(*Verifier).verifyByRow"),
		in("sqlexec.(*JoinCache).ExistsCtx"),
	})
	slices.Sort(keys)
	if want := []string{"sqlexec.exists", "verify.by-row", "verify.memo_key"}; !slices.Equal(keys, want) {
		t.Errorf("inclusiveKeys = %v, want %v", keys, want)
	}
}

//go:noinline
func spin(d time.Duration) (x uint64) {
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
	}
	return x
}

func TestAnalyzeProfileReadsARealProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("CPU profiler unavailable: %v", err)
	}
	spin(300 * time.Millisecond)
	pprof.StopCPUProfile()
	ps, err := analyzeProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if ps.samples == 0 {
		t.Fatal("no samples decoded")
	}
	var sum float64
	for _, v := range ps.layer {
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("layer shares sum to %g", sum)
	}
	if ps.layer[layerBench] < 0.5 {
		t.Errorf("benchmark code holds %.2f of a profile that spins in it", ps.layer[layerBench])
	}
}

func row(vals ...any) []sqlir.Value {
	out := make([]sqlir.Value, len(vals))
	for i, v := range vals {
		switch v := v.(type) {
		case string:
			out[i] = sqlir.NewText(v)
		case int:
			out[i] = sqlir.NewInt(v)
		}
	}
	return out
}

func TestFavorableOrderReordersOnlyWithinTies(t *testing.T) {
	// Three tie groups by count: {a,b} at 7, {c} at 3, {d,e} at 1.
	rows := [][]sqlir.Value{row("a", 7), row("b", 7), row("c", 3), row("d", 1), row("e", 1)}
	starts := []int{0, 2, 3}
	ex := func(s string) tsq.Tuple { return tsq.Tuple{tsq.Exact(sqlir.NewText(s)), tsq.Empty()} }
	result := func(rows [][]sqlir.Value) *sqlexec.Result {
		return &sqlexec.Result{Types: []sqlir.Type{sqlir.TypeText, sqlir.TypeNumber}, Rows: rows}
	}
	sorted := &tsq.TSQ{Tuples: []tsq.Tuple{ex("b"), ex("a"), ex("e"), ex("d")}, Sorted: true}
	got := favorableOrder(rows, starts, sorted, 0)
	if !sorted.Satisfies(result(got)) {
		t.Errorf("tie-permuted order %v does not satisfy %v", got, sorted)
	}
	// No permutation within ties can put c before a.
	wrong := &tsq.TSQ{Tuples: []tsq.Tuple{ex("c"), ex("a")}, Sorted: true}
	if wrong.Satisfies(result(favorableOrder(rows, starts, wrong, 0))) {
		t.Errorf("%v satisfied across tie groups", wrong)
	}
	// LIMIT 4 cuts the last group: either d or e may survive.
	lim := &tsq.TSQ{Tuples: []tsq.Tuple{ex("e")}}
	if !lim.Satisfies(result(favorableOrder(rows, starts, lim, 4))) {
		t.Error("LIMIT cutting a tie group did not let e survive")
	}
}

func TestIsSubBag(t *testing.T) {
	rows := [][]sqlir.Value{row("a", 1), row("a", 1), row("b", 2)}
	if !isSubBag([][]string{{"a", "1"}, {"b", "2"}, {"a", "1"}}, rows) {
		t.Error("permutation rejected")
	}
	if isSubBag([][]string{{"b", "2"}, {"b", "2"}}, rows) {
		t.Error("row used twice accepted")
	}
}

// TestWorkloadsAreDeterministic checks that a seed fixes a workload's
// inputs: the served data and every request, in order.
func TestWorkloadsAreDeterministic(t *testing.T) {
	digest := func(name string, seed int64) string {
		t.Helper()
		su, err := setupWorkload(name, seed, t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		for _, db := range su.loadDBs {
			fmt.Fprintf(&b, "%s %016x\n", db.Name, storage.Fingerprint(db))
		}
		for _, r := range su.w.reqs {
			b.WriteString(r.id + "|" + r.db + "|" + r.in.NLQ + "|" + r.in.Sketch.String() + "|" + r.gold.String() + "\n")
		}
		b.WriteString(su.w.ingest)
		return b.String()
	}
	for _, name := range workloadNames {
		a, b := digest(name, 3), digest(name, 3)
		if a != b {
			t.Errorf("%s: two set-ups with seed 3 differ", name)
		}
		if a == digest(name, 4) {
			t.Errorf("%s: seeds 3 and 4 give the same inputs", name)
		}
	}
}

// TestMetricsMatchBenchmarkJSON keeps the declared metrics and the ones
// the program reports in step.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
		Workloads []struct{ Name string }               `json:"workloads"`
	}
	if err := json.Unmarshal(data, &decl); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, defs []metricDef, got []struct{ Name, Unit, Better string }) {
		if len(defs) != len(got) {
			t.Errorf("%s: program reports %d metrics, BENCHMARK.json declares %d", kind, len(defs), len(got))
			return
		}
		for i, d := range defs {
			if g := got[i]; g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
				t.Errorf("%s[%d]: program %v, BENCHMARK.json %v", kind, i, d, g)
			}
		}
	}
	same("end_to_end", endToEnd, decl.EndToEnd)
	same("per_layer", perLayer, decl.PerLayer)
	var names []string
	for _, w := range decl.Workloads {
		names = append(names, w.Name)
	}
	if !slices.Equal(names, workloadNames) {
		t.Errorf("workloads: program %v, BENCHMARK.json %v", workloadNames, names)
	}
}

// TestPhaseRunsWholeBlocks drives a shortened gen-ingest block from both
// sessions, traced, and gates it; run it under -race.
func TestPhaseRunsWholeBlocks(t *testing.T) {
	su, err := setupWorkload("gen-ingest", 1, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	w := su.w
	w.reqs = w.reqs[:writeEvery-1]
	w.block = int64(len(w.reqs)) // one append closes each block
	ph, err := runPhase(w, su.loadDBs, time.Nanosecond, newTracer())
	if err != nil {
		t.Fatal(err)
	}
	if len(ph.reads) != int(w.block) || len(ph.writes) != 1 || ph.errs != 0 {
		t.Fatalf("one block ran %d reads, %d appends, %d failed appends; want %d, 1, 0", len(ph.reads), len(ph.writes), ph.errs, w.block)
	}
	if bs := blockStats(ph.reads, w.block); len(bs) != 1 {
		t.Errorf("%d whole blocks, want 1", len(bs))
	}
	g := checkOutputs(ph.reads)
	if g.nViolation != 0 || g.checked == 0 {
		t.Errorf("gate: %d candidates checked, violations %v", g.checked, g.violations)
	}
	for _, o := range ph.reads {
		if o.err != nil {
			t.Errorf("%s: %v", o.req.id, o.err)
		}
	}
}
