package main

import (
	"runtime"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"time"

	"github.com/duoquest/duoquest/internal/guidance"
	"github.com/duoquest/duoquest/internal/sqlir"
)

// tracer collects the traced run's spans. Spans are recorded by the
// benchmark around each public call it makes and kept in memory as
// per-name totals; a nil tracer records nothing.
type tracer struct {
	mu    sync.Mutex
	spans map[string]*spanStat

	// guidance calls are too frequent for the span map's lock: one
	// counter pair per model method.
	guideCalls [numGuideMethods]atomic.Int64
	guideNanos [numGuideMethods]atomic.Int64
}

type spanStat struct {
	count int64
	total time.Duration
}

func newTracer() *tracer { return &tracer{spans: map[string]*spanStat{}} }

func (t *tracer) span(name string, d time.Duration) {
	if t == nil {
		return
	}
	t.mu.Lock()
	s := t.spans[name]
	if s == nil {
		s = &spanStat{}
		t.spans[name] = s
	}
	s.count++
	s.total += d
	t.mu.Unlock()
}

// meanMs is the mean span duration in milliseconds (0 when none ran).
func (t *tracer) meanMs(name string) float64 {
	s := t.spans[name]
	if s == nil || s.count == 0 {
		return 0
	}
	return ms(s.total) / float64(s.count)
}

func (t *tracer) guide(m guideMethod, start time.Time) {
	t.guideCalls[m].Add(1)
	t.guideNanos[m].Add(int64(time.Since(start)))
}

// guidanceTotals sums the guidance counters over all methods.
func (t *tracer) guidanceTotals() (calls int64, spent time.Duration) {
	for i := range t.guideCalls {
		calls += t.guideCalls[i].Load()
		spent += time.Duration(t.guideNanos[i].Load())
	}
	return calls, spent
}

type guideMethod int

const (
	gKeywords guideMethod = iota
	gSelectCount
	gSelectColumn
	gSelectAgg
	gWhereCount
	gWhereConj
	gWhereColumn
	gWhereOp
	gWhereValue
	gHavingPresent
	gHavingAggCol
	gHavingOp
	gHavingValue
	gOrderKey
	gOrderDir
	numGuideMethods
)

// timedModel is the traced run's guidance model: the engine's default
// lexical model with every call timed.
type timedModel struct {
	inner guidance.Model
	tr    *tracer
}

func (m *timedModel) Keywords(ctx *guidance.Context) []guidance.Scored[guidance.KeywordSet] {
	defer m.tr.guide(gKeywords, time.Now())
	return m.inner.Keywords(ctx)
}

func (m *timedModel) SelectCount(ctx *guidance.Context) []guidance.Scored[int] {
	defer m.tr.guide(gSelectCount, time.Now())
	return m.inner.SelectCount(ctx)
}

func (m *timedModel) SelectColumn(ctx *guidance.Context, idx int) []guidance.Scored[sqlir.ColumnRef] {
	defer m.tr.guide(gSelectColumn, time.Now())
	return m.inner.SelectColumn(ctx, idx)
}

func (m *timedModel) SelectAgg(ctx *guidance.Context, idx int, col sqlir.ColumnRef) []guidance.Scored[sqlir.AggFunc] {
	defer m.tr.guide(gSelectAgg, time.Now())
	return m.inner.SelectAgg(ctx, idx, col)
}

func (m *timedModel) WhereCount(ctx *guidance.Context) []guidance.Scored[int] {
	defer m.tr.guide(gWhereCount, time.Now())
	return m.inner.WhereCount(ctx)
}

func (m *timedModel) WhereConj(ctx *guidance.Context) []guidance.Scored[sqlir.LogicalOp] {
	defer m.tr.guide(gWhereConj, time.Now())
	return m.inner.WhereConj(ctx)
}

func (m *timedModel) WhereColumn(ctx *guidance.Context, idx int) []guidance.Scored[sqlir.ColumnRef] {
	defer m.tr.guide(gWhereColumn, time.Now())
	return m.inner.WhereColumn(ctx, idx)
}

func (m *timedModel) WhereOp(ctx *guidance.Context, col sqlir.ColumnRef) []guidance.Scored[sqlir.Op] {
	defer m.tr.guide(gWhereOp, time.Now())
	return m.inner.WhereOp(ctx, col)
}

func (m *timedModel) WhereValue(ctx *guidance.Context, col sqlir.ColumnRef, op sqlir.Op) []guidance.Scored[sqlir.Value] {
	defer m.tr.guide(gWhereValue, time.Now())
	return m.inner.WhereValue(ctx, col, op)
}

func (m *timedModel) HavingPresent(ctx *guidance.Context) []guidance.Scored[bool] {
	defer m.tr.guide(gHavingPresent, time.Now())
	return m.inner.HavingPresent(ctx)
}

func (m *timedModel) HavingAggCol(ctx *guidance.Context) []guidance.Scored[guidance.AggCol] {
	defer m.tr.guide(gHavingAggCol, time.Now())
	return m.inner.HavingAggCol(ctx)
}

func (m *timedModel) HavingOp(ctx *guidance.Context) []guidance.Scored[sqlir.Op] {
	defer m.tr.guide(gHavingOp, time.Now())
	return m.inner.HavingOp(ctx)
}

func (m *timedModel) HavingValue(ctx *guidance.Context) []guidance.Scored[sqlir.Value] {
	defer m.tr.guide(gHavingValue, time.Now())
	return m.inner.HavingValue(ctx)
}

func (m *timedModel) OrderKey(ctx *guidance.Context) []guidance.Scored[guidance.AggCol] {
	defer m.tr.guide(gOrderKey, time.Now())
	return m.inner.OrderKey(ctx)
}

func (m *timedModel) OrderDir(ctx *guidance.Context) []guidance.Scored[guidance.DirLimit] {
	defer m.tr.guide(gOrderDir, time.Now())
	return m.inner.OrderDir(ctx)
}

// runtimeSample is a reading of the runtime's cumulative CPU and
// allocation counters.
type runtimeSample struct {
	gcCPU, totalCPU, idleCPU float64 // seconds
	allocBytes               uint64
}

var runtimeMetricNames = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
	"/gc/heap/allocs:bytes",
}

func readRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeMetricNames))
	for i, n := range runtimeMetricNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return runtimeSample{
		gcCPU:      s[0].Value.Float64(),
		totalCPU:   s[1].Value.Float64(),
		idleCPU:    s[2].Value.Float64(),
		allocBytes: s[3].Value.Uint64(),
	}
}

// gcShare is the GC's share of the non-idle CPU time between two readings.
func gcShare(a, b runtimeSample) float64 {
	busy := (b.totalCPU - b.idleCPU) - (a.totalCPU - a.idleCPU)
	if busy <= 0 {
		return 0
	}
	return (b.gcCPU - a.gcCPU) / busy
}

// liveHeapMB forces a collection and returns the live heap in MB.
func liveHeapMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
