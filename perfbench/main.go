// Command perfbench is the repository's end-to-end benchmark. It drives the
// engine in-process through service.Engine, the layer under
// cmd/duoquest-server: each request does the work of a streaming
// /v1/synthesize response (SynthesizeStream, then a 20-row Preview of every
// candidate as it arrives), issued by a closed loop of two sessions.
//
//	bash perfbench/run.sh --workload spider-dev --seed 1 --seconds 20 --trace 0
//
// --trace 0 measures the end-to-end metrics; --trace 1 runs the workload
// untraced and then traced for half the time each and reports the
// per-layer metrics, including the tracing overhead. The last line of
// standard output is one JSON object with the verdict of the correctness
// gate and the metrics. NOTES.md explains the workloads and lists known
// defects.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"time"
)

// metricDef declares one reported metric; BENCHMARK.json lists the same.
type metricDef struct{ name, unit, better string }

var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"req_per_s", "1/s", "higher"},
	{"latency_p50_ms", "ms", "lower"},
	{"latency_p95_ms", "ms", "lower"},
	{"ttfc_p50_ms", "ms", "lower"},
	{"top1_acc", "frac", "higher"},
	{"topk_acc", "frac", "higher"},
	{"untruncated_frac", "frac", "higher"},
	{"ok_frac", "frac", "higher"},
	{"retained_heap_mb", "MB", "lower"},
}

// layerShares are the layers every CPU-profile sample is charged to.
var layerShares = []string{"guidance", "enumerate", "semrules", "verify", "sqlexec", "storage", "service", "workload", "baseline", "bench", layerOther}

var perLayer = func() []metricDef {
	defs := []metricDef{
		{"trace.untraced_req_per_s", "1/s", "higher"},
		{"trace.traced_req_per_s", "1/s", "higher"},
		{"trace.overhead", "frac", "lower"},
		{"profile.samples", "count", "higher"},
		{"guidance.calls", "1/req", "lower"},
		{"guidance.ms", "ms/req", "lower"},
		{"enumerate.states", "1/req", "lower"},
		{"enumerate.candidates", "1/req", "higher"},
		{"verify.semantics.cpu_share", "frac", "lower"},
		{"verify.column-types.cpu_share", "frac", "lower"},
		{"verify.by-column.cpu_share", "frac", "lower"},
		{"verify.by-row.cpu_share", "frac", "lower"},
		{"verify.by-order.cpu_share", "frac", "lower"},
		{"verify.memo_key.cpu_share", "frac", "lower"},
		{"sqlexec.exists.cpu_share", "frac", "lower"},
		{"sqlexec.execute.cpu_share", "frac", "lower"},
		{"sqlexec.streamed_exists", "1/req", "lower"},
		{"sqlexec.fallback_exists", "1/req", "lower"},
		{"sqlexec.index_probes", "1/req", "lower"},
		{"sqlexec.joins_built", "1/req", "lower"},
		{"sqlexec.prefix_hit_rate", "frac", "higher"},
		{"sqlexec.join_paths", "count", "lower"},
		{"service.synthesize_ms", "ms/req", "lower"},
		{"service.first_emit_ms", "ms", "lower"},
		{"service.preview_ms", "ms", "lower"},
		{"service.append_ms", "ms", "lower"},
		{"service.append_p50_ms", "ms", "lower"},
		{"storage.segment_load_ms", "ms", "lower"},
		{"storage.epochs", "count", "lower"},
		{"storage.epoch_lag_max", "count", "lower"},
		{"storage.bytes", "bytes", "lower"},
		{"runtime.gc.cpu_share", "frac", "lower"},
		{"runtime.gc.profile_share", "frac", "lower"},
		{"runtime.alloc_mb", "MB/req", "lower"},
	}
	for _, l := range layerShares {
		defs = append(defs, metricDef{l + ".cpu_share", "frac", "lower"})
	}
	return defs
}()

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workloadName := fs.String("workload", "spider-dev", fmt.Sprintf("workload: one of %v", workloadNames))
	seed := fs.Int64("seed", 1, "workload seed: data, sketches and request order derive from it")
	seconds := fs.Int("seconds", 20, "measured seconds per run")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	dir := fs.String("dir", ".bench_build", "scratch directory for segment stores")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		return fmt.Errorf("need --seconds >= 1 and --trace 0 or 1")
	}
	dataDir := filepath.Join(*dir, "data")
	defer os.RemoveAll(dataDir)

	su, setupTime, loadTime, err := setup(*workloadName, *seed, dataDir)
	if err != nil {
		return err
	}
	w := su.w
	d := time.Duration(*seconds) * time.Second
	fmt.Fprintf(stdout, "workload %s seed %d: %d requests per pass, k=%d, %d sessions, setup %.3fs (load %.1fms)\n",
		w.name, *seed, len(w.reqs), w.k, sessions, setupTime.Seconds(), ms(loadTime))

	res := result{Correct: true, Metrics: map[string]metricValue{}}
	units := map[string]string{}
	for _, m := range append(endToEnd, perLayer...) {
		units[m.name] = m.unit
	}
	put := func(name string, v float64) {
		u, ok := units[name]
		if !ok {
			panic("undeclared metric " + name)
		}
		res.Metrics[name] = metricValue{Value: v, Unit: u}
	}
	gateOn := func(ph *phase) gateReport {
		t0 := time.Now()
		g := checkOutputs(ph.reads)
		fmt.Fprintf(stdout, "gate: %d candidates re-executed in %.1fs, %d violations, %d hold only under another tie order; top1 %d/%d, topk %d/%d\n",
			g.checked, time.Since(t0).Seconds(), g.nViolation, g.tieDependent, g.top1, len(ph.reads), g.topk, len(ph.reads))
		for _, v := range g.violations {
			fmt.Fprintf(stdout, "  violation: %s\n", v)
		}
		res.Correct = res.Correct && g.nViolation == 0
		res.Attempted += len(ph.reads) + len(ph.writes) + ph.errs
		res.Failed += ph.errs
		for _, o := range ph.reads {
			if o.err != nil {
				res.Failed++
				if res.Failed <= 5 {
					fmt.Fprintf(stdout, "  error: %s: %v\n", o.req.id, o.err)
				}
			}
		}
		return g
	}

	if *trace == 0 {
		ph, err := runPhase(w, su.loadDBs, d, nil)
		if err != nil {
			return err
		}
		// The engine's share of the live heap: what a collection frees once
		// the last engine is dropped, with the benchmark's records kept.
		heap := liveHeapMB()
		ph.last = nil
		heap -= liveHeapMB()
		g := gateOn(ph)
		blocks := blockStats(ph.reads, w.block)
		if len(blocks) == 0 {
			return fmt.Errorf("no whole block of %d requests completed", w.block)
		}
		n := len(ph.reads)
		truncated := 0
		for _, o := range ph.reads {
			if o.truncated {
				truncated++
			}
		}
		put("setup_s", setupTime.Seconds())
		put("req_per_s", medianBlock(blocks, blockReqPerS))
		put("latency_p50_ms", medianBlock(blocks, func(b blockStat) float64 { return b.p50 }))
		put("latency_p95_ms", medianBlock(blocks, func(b blockStat) float64 { return b.p95 }))
		put("ttfc_p50_ms", medianBlock(blocks, func(b blockStat) float64 { return b.ttfcP50 }))
		put("top1_acc", float64(g.top1)/float64(n))
		put("topk_acc", float64(g.topk)/float64(n))
		put("untruncated_frac", 1-float64(truncated)/float64(n))
		put("ok_frac", 1-float64(res.Failed)/float64(res.Attempted))
		put("retained_heap_mb", heap)
		fmt.Fprintf(stdout, "%d requests, %d appends in %.2fs, %d blocks of %d requests (medians reported):\n",
			n, len(ph.writes), ph.wall.Seconds(), len(blocks), w.block)
		for i, b := range blocks {
			fmt.Fprintf(stdout, "  block %d: %.2f req/s, p50 %.2fms, p95 %.2fms, p%g %.2fms, ttfc p50 %.2fms\n",
				i, b.reqPerS, b.p50, b.p95, 100*b.tailQ, b.tail, b.ttfcP50)
		}
		printMetrics(stdout, endToEnd, res.Metrics)
	} else {
		half := d / 2
		plain, err := runPhase(w, su.loadDBs, half, nil)
		if err != nil {
			return err
		}
		gateOn(plain)
		plainRPS := medianBlock(blockStats(plain.reads, w.block), blockReqPerS)

		// The traced half starts from freshly loaded data, as the untraced
		// one did: gen-ingest's appends changed the first copy.
		dbs, _, err := w.load()
		if err != nil {
			return err
		}
		tr := newTracer()
		var prof bytes.Buffer
		runtime.GC()
		rt0 := readRuntime()
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return err
		}
		ph, err := runPhase(w, dbs, half, tr)
		pprof.StopCPUProfile()
		rt1 := readRuntime()
		if err != nil {
			return err
		}
		shares, err := analyzeProfile(prof.Bytes())
		if err != nil {
			return err
		}
		gateOn(ph)
		tracedRPS := medianBlock(blockStats(ph.reads, w.block), blockReqPerS)
		layerMetrics(put, ph, tr, shares, rt0, rt1, plainRPS, tracedRPS, loadTime)
		printMetrics(stdout, perLayer, res.Metrics)
	}

	out, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, string(out))
	if !res.Correct {
		return fmt.Errorf("output-correctness gate failed")
	}
	return nil
}

// layerMetrics fills the per-layer metrics of a traced phase.
func layerMetrics(p func(string, float64), ph *phase, tr *tracer, shares *profileShares, rt0, rt1 runtimeSample, plainRPS, tracedRPS float64, loadTime time.Duration) {
	n := float64(len(ph.reads))
	p("trace.untraced_req_per_s", plainRPS)
	p("trace.traced_req_per_s", tracedRPS)
	p("trace.overhead", plainRPS/tracedRPS-1)
	p("profile.samples", float64(shares.samples))

	calls, spent := tr.guidanceTotals()
	p("guidance.calls", float64(calls)/n)
	p("guidance.ms", ms(spent)/n)
	var states, cands int
	for _, o := range ph.reads {
		states += o.states
		cands += len(o.cands)
	}
	p("enumerate.states", float64(states)/n)
	p("enumerate.candidates", float64(cands)/n)
	for _, vs := range verifyStages {
		p("verify."+vs.stage+".cpu_share", shares.inclusive["verify."+vs.stage])
	}
	p("verify.memo_key.cpu_share", shares.inclusive["verify.memo_key"])
	p("sqlexec.exists.cpu_share", shares.inclusive["sqlexec.exists"])
	p("sqlexec.execute.cpu_share", shares.inclusive["sqlexec.execute"])

	st := ph.engineStats
	p("sqlexec.streamed_exists", float64(st.pipe.StreamedExists)/n)
	p("sqlexec.fallback_exists", float64(st.pipe.FallbackExists)/n)
	p("sqlexec.index_probes", float64(st.pipe.IndexProbes)/n)
	p("sqlexec.joins_built", float64(st.pipe.JoinsBuilt)/n)
	p("sqlexec.prefix_hit_rate", ratio(st.pipe.PrefixHits, st.pipe.PrefixHits+st.pipe.JoinsBuilt))
	p("sqlexec.join_paths", float64(st.joinPaths))

	p("service.synthesize_ms", tr.meanMs("service.synthesize"))
	p("service.first_emit_ms", tr.meanMs("service.first_emit"))
	p("service.preview_ms", tr.meanMs("service.preview"))
	p("service.append_ms", tr.meanMs("service.append"))
	p("service.append_p50_ms", ms(quantile(sortedCopy(ph.writes), 0.5)))
	p("storage.segment_load_ms", ms(loadTime))
	p("storage.epochs", float64(st.epochs))
	p("storage.epoch_lag_max", float64(st.lagMax))
	p("storage.bytes", float64(st.bytes))

	p("runtime.gc.cpu_share", gcShare(rt0, rt1))
	p("runtime.gc.profile_share", shares.layer[layerGC])
	p("runtime.alloc_mb", float64(rt1.allocBytes-rt0.allocBytes)/(1<<20)/n)
	for _, l := range layerShares {
		p(l+".cpu_share", shares.layer[l])
	}
}

// blockStat holds one measurement block's timings; times in ms.
type blockStat struct {
	reqPerS, p50, p95, ttfcP50 float64
	tailQ, tail                float64 // highest supported percentile
}

// blockStats splits a phase's reads into blocks of consecutive read
// numbers and times each whole block: its throughput over the span from
// its first start to its last end, and its latency quantiles. A read
// claimed while the phase was stopping can start a block it does not
// finish; such partial blocks are left out.
func blockStats(reads []outcome, block int64) []blockStat {
	byBlock := map[int64][]outcome{}
	for _, o := range reads {
		byBlock[o.seq/block] = append(byBlock[o.seq/block], o)
	}
	var out []blockStat
	for bi := int64(0); int64(len(byBlock[bi])) == block; bi++ {
		bs := byBlock[bi]
		var lat, ttfc []time.Duration
		first, last := bs[0].start, bs[0].start
		for _, o := range bs {
			lat = append(lat, o.latency)
			if len(o.cands) > 0 {
				ttfc = append(ttfc, o.ttfc)
			}
			if o.start.Before(first) {
				first = o.start
			}
			if end := o.start.Add(o.latency); end.After(last) {
				last = end
			}
		}
		lat, ttfc = sortedCopy(lat), sortedCopy(ttfc)
		tq := tailQuantile(len(lat))
		out = append(out, blockStat{
			reqPerS: float64(len(bs)) / last.Sub(first).Seconds(),
			p50:     ms(quantile(lat, 0.50)),
			p95:     ms(quantile(lat, 0.95)),
			ttfcP50: ms(quantile(ttfc, 0.50)),
			tailQ:   tq,
			tail:    ms(quantile(lat, tq)),
		})
	}
	return out
}

func blockReqPerS(b blockStat) float64 { return b.reqPerS }

// medianBlock is the median over blocks of one block statistic (0 when
// there are no blocks).
func medianBlock(blocks []blockStat, f func(blockStat) float64) float64 {
	v := make([]float64, len(blocks))
	for i, b := range blocks {
		v[i] = f(b)
	}
	sort.Float64s(v)
	if len(v) == 0 {
		return 0
	}
	if len(v)%2 == 1 {
		return v[len(v)/2]
	}
	return (v[len(v)/2-1] + v[len(v)/2]) / 2
}

func sortedCopy(ds []time.Duration) []time.Duration {
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s
}

// quantile is the nearest-rank q-quantile of an ascending slice (0 when
// empty).
func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(q * float64(len(sorted))))
	return sorted[min(max(rank, 1), len(sorted))-1]
}

// tailQuantiles are the percentiles the benchmark may report, highest
// first.
var tailQuantiles = []float64{0.999, 0.99, 0.95, 0.9, 0.5}

// tailQuantile returns the highest reportable quantile for n samples: the
// highest with at least ten samples beyond its nearest rank (0 if none).
func tailQuantile(n int) float64 {
	for _, q := range tailQuantiles {
		if n-int(math.Ceil(q*float64(n))) >= 10 {
			return q
		}
	}
	return 0
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func printMetrics(w io.Writer, defs []metricDef, vals map[string]metricValue) {
	for _, m := range defs {
		fmt.Fprintf(w, "  %-32s %14.4f %s\n", m.name, vals[m.name].Value, m.unit)
	}
}
