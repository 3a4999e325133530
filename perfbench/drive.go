package main

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"github.com/duoquest/duoquest/internal/enumerate"
	"github.com/duoquest/duoquest/internal/guidance"
	"github.com/duoquest/duoquest/internal/service"
	"github.com/duoquest/duoquest/internal/sqlexec"
	"github.com/duoquest/duoquest/internal/storage"
)

// outcome is one finished synthesis request as the client saw it.
type outcome struct {
	req       *request
	seq       int64 // read number within the phase
	start     time.Time
	snap      *storage.Database // the frozen epoch the request observed
	cands     []enumerate.Candidate
	states    int
	truncated bool
	err       error
	latency   time.Duration // SynthesizeStream plus every preview
	ttfc      time.Duration // to the first emitted candidate (0: none)
	previews  [][][]string  // rendered preview rows, per candidate
}

// phase is one timed closed-loop run over a workload.
type phase struct {
	reads  []outcome
	writes []time.Duration // Engine.Append latencies
	errs   int             // failed appends
	wall   time.Duration

	engineStats engineStats
	last        *service.Engine // the last block's engine
}

// engineStats sums the Engine.Stats counters of every engine a phase used.
// Engines are created for the phase, so the sums are the phase's deltas.
type engineStats struct {
	pipe      sqlexec.PipelineStats
	joinPaths int // materialized in the last block's engine
	epochs    int64
	lagMax    int64
	bytes     int64 // column vectors and dictionaries the last engine serves
}

func (es *engineStats) add(eng *service.Engine, last bool) {
	for _, d := range eng.Stats().Databases {
		p := d.Cache.Pipeline
		es.pipe.StreamedExists += p.StreamedExists
		es.pipe.FallbackExists += p.FallbackExists
		es.pipe.IndexProbes += p.IndexProbes
		es.pipe.PrefixHits += p.PrefixHits
		es.pipe.JoinsBuilt += p.JoinsBuilt
		es.epochs += d.HeadEpoch
		es.lagMax = max(es.lagMax, d.EpochLagMax)
		if last {
			es.joinPaths += d.Cache.JoinPaths
			es.bytes += d.Storage.VectorBytes + d.Storage.DictBytes
		}
	}
}

// runPhase drives the workload from a closed loop of sessions, each issuing
// its next operation only after the previous one returned, for at least
// the given duration and in whole blocks. Every block does the same work
// on a fresh engine (and, for gen-ingest, on freshly loaded data, so the
// appends of one block do not slow the next): operation j of a block is,
// for gen-ingest, an append when j mod writeEvery is writeEvery-1, and
// otherwise the block's next read, read r serving request r mod len(reqs).
func runPhase(w *workload, dbs []*storage.Database, d time.Duration, tr *tracer) (*phase, error) {
	ph := &phase{}
	var model guidance.Model
	if tr != nil {
		model = &timedModel{inner: guidance.NewLexicalModel(), tr: tr}
	}
	// newBlock builds the engine for the next block.
	var stats engineStats
	newBlock := func(reload bool) (*service.Engine, error) {
		if ph.last != nil {
			stats.add(ph.last, false)
		}
		if reload {
			var err error
			if dbs, _, err = w.load(); err != nil {
				return nil, err
			}
		}
		eng := service.NewEngine(service.Config{
			Model:         model,
			Budget:        budget,
			MaxCandidates: w.k,
			MaxStates:     maxStates,
			Workers:       1,
		})
		for _, db := range dbs {
			if err := eng.Register(db); err != nil {
				return nil, err
			}
		}
		ph.last = eng
		return eng, nil
	}
	if _, err := newBlock(false); err != nil {
		return nil, err
	}
	var ingestSrc *storage.Table
	ingestDB := dbs[0].Name
	if w.ingest != "" {
		ingestSrc = dbs[0].Snapshot().Table(w.ingest)
	}

	// claim hands out operations in order under one lock, so that the phase
	// stops exactly at a block boundary and each block's engine exists
	// before any of its operations runs.
	var (
		mu       sync.Mutex
		nextOp   int64
		stopped  bool
		blockErr error
	)
	opsPerBlock := w.block
	if ingestSrc != nil {
		opsPerBlock += w.block / (writeEvery - 1)
	}
	n := int64(len(w.reqs))
	start := time.Now()
	stop := start.Add(d)
	claim := func() (int64, *service.Engine, bool) {
		mu.Lock()
		defer mu.Unlock()
		if stopped || blockErr != nil {
			return 0, nil, false
		}
		i := nextOp
		if i%opsPerBlock == 0 && i > 0 {
			if !time.Now().Before(stop) {
				stopped = true
				return 0, nil, false
			}
			if _, blockErr = newBlock(ingestSrc != nil); blockErr != nil {
				return 0, nil, false
			}
		}
		nextOp++
		return i, ph.last, true
	}

	var wg sync.WaitGroup
	results := make([]*phase, sessions)
	for s := range results {
		local := &phase{}
		results[s] = local
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i, eng, ok := claim()
				if !ok {
					return
				}
				b, j := i/opsPerBlock, i%opsPerBlock
				if ingestSrc != nil && j%writeEvery == writeEvery-1 {
					t0 := time.Now()
					_, err := eng.Append(ingestDB, w.ingest, ingestBatch(ingestSrc, int(j/writeEvery)*writeRows, writeRows))
					took := time.Since(t0)
					if err != nil {
						local.errs++
						continue
					}
					local.writes = append(local.writes, took)
					tr.span("service.append", took)
					continue
				}
				if ingestSrc != nil {
					j -= j / writeEvery // reads before j in the block
				}
				o := issue(eng, &w.reqs[j%n], w.k, tr)
				o.seq = b*w.block + j
				local.reads = append(local.reads, o)
			}
		}()
	}
	wg.Wait()
	ph.wall = time.Since(start)
	if blockErr != nil {
		return nil, blockErr
	}
	for _, r := range results {
		ph.reads = append(ph.reads, r.reads...)
		ph.writes = append(ph.writes, r.writes...)
		ph.errs += r.errs
	}
	stats.add(ph.last, true)
	ph.engineStats = stats
	return ph, nil
}

// issue runs one request the way /v1/synthesize serves it in streaming
// mode: pin the latest epoch, stream candidates, and preview each one as it
// arrives. The benchmark times the request with its own clock because
// enumerate.Result.Elapsed is unset on MaxStates-capped searches (NOTES.md,
// ledger entry b).
func issue(eng *service.Engine, req *request, k int, tr *tracer) outcome {
	t0 := time.Now()
	out := outcome{req: req, start: t0}
	sn, err := eng.Snapshot(req.db)
	if err != nil {
		out.err = err
		out.latency = time.Since(t0)
		return out
	}
	out.snap = sn.Database()
	var previewTime time.Duration
	emit := func(c enumerate.Candidate) bool {
		if out.ttfc == 0 {
			out.ttfc = time.Since(t0)
			tr.span("service.first_emit", out.ttfc)
		}
		p0 := time.Now()
		res, err := sn.Preview(c.Query, previewCap)
		took := time.Since(p0)
		previewTime += took
		tr.span("service.preview", took)
		var rows [][]string
		if err == nil {
			rows = make([][]string, len(res.Rows))
			for ri, row := range res.Rows {
				cells := make([]string, len(row))
				for ci, v := range row {
					cells[ci] = v.Display()
				}
				rows[ri] = cells
			}
		} else if out.err == nil {
			out.err = fmt.Errorf("preview %s: %w", c.Query, err)
		}
		out.previews = append(out.previews, rows)
		return true
	}
	res, err := sn.SynthesizeStream(context.Background(), req.in, emit)
	out.latency = time.Since(t0)
	tr.span("service.synthesize", out.latency-previewTime)
	if err != nil {
		if errors.Is(err, service.ErrOverloaded) {
			err = fmt.Errorf("shed: %w", err)
		}
		out.err = err
		return out
	}
	out.cands = res.Candidates
	out.states = res.States
	out.truncated = res.Truncated
	if len(out.cands) > k {
		out.err = fmt.Errorf("%d candidates returned, cap is %d", len(out.cands), k)
	}
	return out
}
