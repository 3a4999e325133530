// Vectorized streaming verification executor: existence probes compile
// their predicates into typed evaluators over the storage engine's column
// vectors — float comparisons for numeric columns, dictionary-code
// comparisons for text equality — seed the pipeline from the most selective
// equality predicate's posting list in a typed column index, and walk the
// join tree as a pipelined index-nested-loop join whose probes are keyed by
// float value or dictionary code instead of boxed sqlir.Value structs.
// Grouped existence streams per-group aggregate accumulators under
// fixed-width binary group keys (a tag byte plus the float bits or
// dictionary code — no string formatting). The pipeline is
// behavior-preserving: any query shape it cannot compile falls back to the
// materializing path, and grouped probes keep the reference tuple
// enumeration order so floating-point aggregates stay bit-identical.
package sqlexec

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"

	"github.com/duoquest/duoquest/internal/faultinject"
	"github.com/duoquest/duoquest/internal/sqlir"
	"github.com/duoquest/duoquest/internal/storage"
)

// PipelineStats is a snapshot of the streaming executor's counters: how
// much verification work the pushdown pipeline served (and avoided) on
// behalf of one JoinCache.
type PipelineStats struct {
	StreamedExists int64 // existence probes answered by the streaming pipeline
	FallbackExists int64 // existence probes that fell back to materialize-then-filter
	IndexSeeds     int64 // probes seeded from a persistent column-index posting list
	IndexProbes    int64 // join-step posting-list lookups
	PrefixHits     int64 // joins materialized by extending an already-cached prefix
	JoinsBuilt     int64 // joins materialized from scratch
	MorselRuns     int64 // scans fanned out through the morsel runner
	Morsels        int64 // morsels claimed and executed across all runs
	MorselWorkers  int64 // sum over runs of workers used (caller included)
}

// IndexHits is the total posting-list work served by persistent indexes.
func (s PipelineStats) IndexHits() int64 { return s.IndexSeeds + s.IndexProbes }

// AvgMorselWorkers is the mean degree of parallelism actually achieved per
// morsel-parallel scan — the per-query parallel efficiency numerator: with
// an idle pool it approaches the per-query worker cap, and under saturation
// (all tokens held by enumeration verify workers) it degrades toward 1.
func (s PipelineStats) AvgMorselWorkers() float64 {
	if s.MorselRuns == 0 {
		return 0
	}
	return float64(s.MorselWorkers) / float64(s.MorselRuns)
}

// pipelineCounters is the mutable, concurrency-safe form of PipelineStats.
type pipelineCounters struct {
	streamed      atomic.Int64
	fallback      atomic.Int64
	indexSeeds    atomic.Int64
	indexProbes   atomic.Int64
	prefixHits    atomic.Int64
	joinsBuilt    atomic.Int64
	morselRuns    atomic.Int64
	morsels       atomic.Int64
	morselWorkers atomic.Int64
}

func (pc *pipelineCounters) snapshot() PipelineStats {
	if pc == nil {
		return PipelineStats{}
	}
	return PipelineStats{
		StreamedExists: pc.streamed.Load(),
		FallbackExists: pc.fallback.Load(),
		IndexSeeds:     pc.indexSeeds.Load(),
		IndexProbes:    pc.indexProbes.Load(),
		PrefixHits:     pc.prefixHits.Load(),
		JoinsBuilt:     pc.joinsBuilt.Load(),
		MorselRuns:     pc.morselRuns.Load(),
		Morsels:        pc.morsels.Load(),
		MorselWorkers:  pc.morselWorkers.Load(),
	}
}

func (pc *pipelineCounters) add(c *atomic.Int64, n int64) {
	if n != 0 {
		c.Add(n)
	}
}

// addMorselRun records one resolved fan-out's stats.
func (pc *pipelineCounters) addMorselRun(res morselResult) {
	pc.add(&pc.morselRuns, 1)
	pc.add(&pc.morsels, res.processed)
	pc.add(&pc.morselWorkers, int64(res.workers))
}

// discardCounters sinks pipeline counters for callers without a JoinCache
// (the package-level Exists/Execute entry points).
var discardCounters pipelineCounters

func errColNotInPath(c sqlir.ColumnRef) error {
	return fmt.Errorf("sqlexec: column %s not in join path", c)
}

func errUnknownCol(c sqlir.ColumnRef) error {
	return fmt.Errorf("sqlexec: unknown column %s", c)
}

func errEdgeUnknownColumn(pe pathEdge) error {
	return fmt.Errorf("sqlexec: join edge %s references unknown column", pe.edge())
}

// predKind discriminates the compiled form of a bound predicate.
type predKind uint8

const (
	// predGeneric materializes the cell and calls Op.Eval — the fallback
	// that is correct for every (column type, literal kind, op) shape.
	predGeneric predKind = iota
	// predNum compares the raw float vector against a numeric literal.
	predNum
	// predTextEq/predTextNe compare dictionary codes against the
	// literal's code — one integer compare, no string hashing.
	predTextEq
	predTextNe
	// predTextNeAll: != against a string absent from the dictionary —
	// every non-null row matches.
	predTextNeAll
	// predNever can match no row (NULL literal, or = against a string
	// absent from the dictionary).
	predNever
)

// boundPred is a predicate compiled against a stream plan: the slot is
// resolved once and the comparison is specialized to the column vector's
// type, so per-row evaluation is a bitmap test plus a typed compare.
type boundPred struct {
	slot int
	vec  *storage.ColumnVec
	kind predKind
	op   sqlir.Op
	fval float64
	code uint32
	val  sqlir.Value
}

func (bp *boundPred) eval(ri int32) bool {
	i := int(ri)
	switch bp.kind {
	case predNum:
		if bp.vec.IsNull(i) {
			return false
		}
		f := bp.vec.Num(i)
		switch bp.op {
		case sqlir.OpEq:
			return f == bp.fval
		case sqlir.OpNe:
			return f != bp.fval
		case sqlir.OpLt:
			return f < bp.fval
		case sqlir.OpGt:
			return f > bp.fval
		case sqlir.OpLe:
			// Not `f <= fval`: Value.Compare returns 0 when either side is
			// NaN (both float comparisons false), so the reference treats
			// NaN as satisfying <= and >=. The negated compare reproduces
			// that exactly; for ordinary floats it is identical.
			return !(f > bp.fval)
		case sqlir.OpGe:
			return !(f < bp.fval)
		default: // LIKE on a numeric cell never matches
			return false
		}
	case predTextEq:
		return !bp.vec.IsNull(i) && bp.vec.Code(i) == bp.code
	case predTextNe:
		return !bp.vec.IsNull(i) && bp.vec.Code(i) != bp.code
	case predTextNeAll:
		return !bp.vec.IsNull(i)
	case predNever:
		return false
	default:
		return bp.op.Eval(bp.vec.Value(i), bp.val)
	}
}

// compilePred specializes one predicate to its column vector. Every branch
// reproduces Op.Eval's semantics exactly (NULL never matches; kind
// mismatches fall to the generic evaluator, which encodes them).
func compilePred(slot int, vec *storage.ColumnVec, op sqlir.Op, val sqlir.Value) boundPred {
	bp := boundPred{slot: slot, vec: vec, kind: predGeneric, op: op, val: val}
	switch {
	case val.IsNull():
		bp.kind = predNever
	case vec.Type() == sqlir.TypeNumber && val.Kind == sqlir.KindNumber:
		bp.kind = predNum
		bp.fval = val.Num
	case vec.Type() == sqlir.TypeText && val.Kind == sqlir.KindText && (op == sqlir.OpEq || op == sqlir.OpNe):
		code, ok := uint32(0), false
		if dict := vec.Dict(); dict != nil {
			code, ok = dict.Lookup(val.Text)
		}
		switch {
		case ok && op == sqlir.OpEq:
			bp.kind, bp.code = predTextEq, code
		case ok:
			bp.kind, bp.code = predTextNe, code
		case op == sqlir.OpEq:
			bp.kind = predNever
		default:
			bp.kind = predTextNeAll
		}
	}
	return bp
}

// stepKind discriminates how a join step probes the child index.
type stepKind uint8

const (
	// stepNum probes the float-keyed index with the parent's numeric cell.
	stepNum stepKind = iota
	// stepText resolves the parent's interned string in the child
	// dictionary and reads the code's posting list.
	stepText
	// stepNone joins columns of mismatched types: no value can ever match
	// (exactly as a typed key never hits the other type's index entries).
	stepNone
)

// streamStep extends a partial tuple by one join edge: probe the bound
// probeSlot's column vector against the child column's typed index.
type streamStep struct {
	probeSlot int
	kind      stepKind
	probeVec  *storage.ColumnVec
	idx       *storage.CodeIndex
}

// postings returns the child rows matching the parent tuple's cell, and
// whether the cell was non-null (a NULL join key matches nothing).
func (st *streamStep) postings(ri int32) ([]int32, bool) {
	i := int(ri)
	if st.probeVec.IsNull(i) {
		return nil, false
	}
	switch st.kind {
	case stepNum:
		return st.idx.Num(st.probeVec.Num(i)), true
	case stepText:
		return st.idx.TextString(st.probeVec.Dict().String(st.probeVec.Code(i))), true
	default:
		return nil, true
	}
}

// streamPlan is a compiled existence probe: slot layout, join steps in
// enumeration order, the pushdown seed, and predicates bound to the
// earliest slot at which they can be evaluated.
type streamPlan struct {
	slots  map[string]int
	tables []*storage.Table // per slot, in bind order

	steps []streamStep // steps[i] binds slot i+1

	rootRows []int32 // pushdown seed posting list (valid when seeded)
	seeded   bool

	predsAt [][]boundPred // AND-semantics predicates checked when their slot binds
	orPreds []boundPred   // OR-connected predicates, checked once orDepth binds
	orDepth int
}

// bindCol resolves a column reference to (slot, column ordinal).
func (p *streamPlan) bindCol(c sqlir.ColumnRef) (int, int, error) {
	slot, ok := p.slots[c.Table]
	if !ok {
		return 0, 0, errColNotInPath(c)
	}
	ci := p.tables[slot].ColumnIndex(c.Column)
	if ci < 0 {
		return 0, 0, errUnknownCol(c)
	}
	return slot, ci, nil
}

// pathEdge is a join edge oriented by introduction order: table a is bound
// before table b.
type pathEdge struct {
	a, b       string
	aCol, bCol string
}

// edge returns the oriented edge as a join-path edge.
func (pe pathEdge) edge() sqlir.JoinEdge {
	return sqlir.JoinEdge{FromTable: pe.a, FromColumn: pe.aCol, ToTable: pe.b, ToColumn: pe.bCol}
}

// orientEdges validates a join path, walking its edges in written order so
// malformed paths report the same error whichever executor sees them, and
// returns the path in canonical form: its root (the least table name) and
// its edges in treeOrder from that root. The canonical form depends only on
// the path's table and edge sets — exactly what joinSig identifies — so
// every executor enumerates the joined tuples of one signature in one order.
func orientEdges(db *storage.Database, jp *sqlir.JoinPath) (string, []pathEdge, map[string]bool, error) {
	if jp == nil || len(jp.Tables) == 0 {
		return "", nil, nil, fmt.Errorf("sqlexec: empty join path")
	}
	root := jp.Tables[0]
	if db.Table(root) == nil {
		return "", nil, nil, fmt.Errorf("sqlexec: unknown table %s", root)
	}
	inSet := map[string]bool{root: true}
	pes := make([]pathEdge, 0, len(jp.Edges))
	for _, e := range jp.Edges {
		var pe pathEdge
		switch {
		case inSet[e.FromTable] && inSet[e.ToTable]:
			return "", nil, nil, fmt.Errorf("sqlexec: table %s joined twice", e.ToTable)
		case inSet[e.FromTable]:
			pe = pathEdge{a: e.FromTable, b: e.ToTable, aCol: e.FromColumn, bCol: e.ToColumn}
		case inSet[e.ToTable]:
			pe = pathEdge{a: e.ToTable, b: e.FromTable, aCol: e.ToColumn, bCol: e.FromColumn}
		default:
			return "", nil, nil, fmt.Errorf("sqlexec: join edge %s disconnected from path", e)
		}
		if db.Table(pe.b) == nil {
			return "", nil, nil, fmt.Errorf("sqlexec: unknown table %s", pe.b)
		}
		inSet[pe.b] = true
		root = min(root, pe.b)
		pes = append(pes, pe)
	}
	treeOrder(pes, root)
	return root, pes, inSet, nil
}

// treeOrder reorders a join tree's edges in place, oriented away from root
// in breadth-first order and visiting each table's new neighbours in name
// order: pes[:n] holds the edges placed so far, and their b tables are the
// walk's queue. The result depends only on the edge set and the root, and it
// is prefix-closed: the last edge always introduces a leaf, and dropping it
// leaves exactly the treeOrder of the smaller tree (JoinCache.build relies
// on this to extend cached prefixes without changing tuple order).
func treeOrder(pes []pathEdge, root string) {
	n := 0
	for qi := -1; qi < n; qi++ {
		cur := root
		if qi >= 0 {
			cur = pes[qi].b
		}
		first := n
		// In a tree every unplaced edge touching cur leads to a new table.
		for i := n; i < len(pes); i++ {
			pe := pes[i]
			switch cur {
			case pe.a:
			case pe.b:
				pe = pathEdge{a: pe.b, b: pe.a, aCol: pe.bCol, bCol: pe.aCol}
			default:
				continue
			}
			pes[i] = pes[n]
			pes[n] = pe
			n++
		}
		slices.SortFunc(pes[first:n], func(x, y pathEdge) int { return strings.Compare(x.b, y.b) })
	}
}

// splitPreds separates an exists query's predicates into AND-semantics
// predicates (checkable at the shallowest binding slot) and OR-connected
// predicates, shared by both streaming planners.
func splitPreds(eq ExistsQuery) (andPreds, orRaw []sqlir.Predicate) {
	andSem := eq.Conj == sqlir.LogicAnd || len(eq.Preds) <= 1
	andPreds = make([]sqlir.Predicate, 0, len(eq.Preds)+len(eq.AndPreds))
	if andSem {
		andPreds = append(andPreds, eq.Preds...)
	} else {
		orRaw = eq.Preds
	}
	andPreds = append(andPreds, eq.AndPreds...)
	return andPreds, orRaw
}

// buildStreamPlan compiles an exists query into a vectorized streaming
// plan. canReorder allows the root to move to the most selective equality
// predicate's table; it is only sound when tuple enumeration order is
// immaterial (the plain no-GROUP-BY witness probe). With canReorder false
// the plan keeps the path's canonical root and edge order (orientEdges), so
// emitted tuples appear in exactly the order the materializing path would
// produce them.
func buildStreamPlan(db *storage.Database, eq ExistsQuery, canReorder bool) (*streamPlan, error) {
	jp := eq.From
	canonRoot, pes, inSet, err := orientEdges(db, jp)
	if err != nil {
		return nil, err
	}

	andPreds, orRaw := splitPreds(eq)

	// Predicate pushdown: seed the pipeline from the smallest posting list
	// among the AND-semantics equality predicates. Posting lists preserve
	// row order, so seeding on the canonical root table is always sound;
	// moving the root elsewhere additionally requires canReorder.
	root := canonRoot
	var rootRows []int32
	seeded, best := false, -1
	for _, p := range andPreds {
		if p.Op != sqlir.OpEq || p.Val.IsNull() || !inSet[p.Col.Table] {
			continue
		}
		if !canReorder && p.Col.Table != canonRoot {
			continue
		}
		t := db.Table(p.Col.Table)
		if t == nil || t.ColumnIndex(p.Col.Column) < 0 {
			continue // surfaces as a bind error below
		}
		ix, ierr := t.CodeIndex(p.Col.Column)
		if ierr != nil {
			continue
		}
		postings := ix.Postings(p.Val)
		if best < 0 || len(postings) < best {
			best = len(postings)
			root = p.Col.Table
			rootRows = postings
			seeded = true
		}
	}

	plan := &streamPlan{slots: make(map[string]int, len(jp.Tables)), seeded: seeded, rootRows: rootRows}
	addTable := func(name string) {
		plan.slots[name] = len(plan.tables)
		plan.tables = append(plan.tables, db.Table(name))
	}
	addStep := func(pe pathEdge) error {
		pt, ct := db.Table(pe.a), db.Table(pe.b)
		probeCol := pt.ColumnIndex(pe.aCol)
		ci := ct.ColumnIndex(pe.bCol)
		if probeCol < 0 || ci < 0 {
			return errEdgeUnknownColumn(pe)
		}
		ix, ierr := ct.CodeIndex(pe.bCol)
		if ierr != nil {
			return ierr
		}
		probeVec := pt.VectorAt(probeCol)
		kind := stepNone
		switch {
		case probeVec.Type() == sqlir.TypeNumber && ct.VectorAt(ci).Type() == sqlir.TypeNumber:
			kind = stepNum
		case probeVec.Type() == sqlir.TypeText && ct.VectorAt(ci).Type() == sqlir.TypeText:
			kind = stepText
		}
		probeSlot := plan.slots[pe.a]
		addTable(pe.b)
		plan.steps = append(plan.steps, streamStep{probeSlot: probeSlot, kind: kind, probeVec: probeVec, idx: ix})
		return nil
	}

	addTable(root)
	if root != canonRoot {
		treeOrder(pes, root) // re-root the join tree at the seed table
	}
	for _, pe := range pes {
		if err := addStep(pe); err != nil {
			return nil, err
		}
	}

	plan.predsAt = make([][]boundPred, len(plan.tables))
	for _, p := range andPreds {
		bp, berr := plan.bindPred(p)
		if berr != nil {
			return nil, berr
		}
		plan.predsAt[bp.slot] = append(plan.predsAt[bp.slot], bp)
	}
	for _, p := range orRaw {
		bp, berr := plan.bindPred(p)
		if berr != nil {
			return nil, berr
		}
		plan.orPreds = append(plan.orPreds, bp)
		if bp.slot > plan.orDepth {
			plan.orDepth = bp.slot
		}
	}
	return plan, nil
}

func (p *streamPlan) bindPred(pr sqlir.Predicate) (boundPred, error) {
	slot, ci, err := p.bindCol(pr.Col)
	if err != nil {
		return boundPred{}, err
	}
	return compilePred(slot, p.tables[slot].VectorAt(ci), pr.Op, pr.Val), nil
}

// domainLen is the size of the plan's root scan domain: the pushdown
// posting list when seeded, else the root table's row count. Morsels
// partition exactly this domain.
func (p *streamPlan) domainLen() int {
	if p.seeded {
		return len(p.rootRows)
	}
	return p.tables[0].NumRows()
}

// run enumerates the full root domain; see runRange.
func (p *streamPlan) run(ctx context.Context, inj *faultinject.Injector, pc *pipelineCounters, emit func(tp []int32) (stop bool, err error)) error {
	_, err := p.runRange(ctx, inj, pc, 0, p.domainLen(), emit)
	return err
}

// runRange enumerates joined tuples depth-first over the root-domain slice
// [lo, hi), evaluating each bound predicate at the shallowest depth where
// its slot is bound. emit returning stop=true short-circuits the
// enumeration (the first-witness early exit), reported as stopped=true.
// All mutable state (the tuple scratch, the canceller, the probe counter)
// is local to the call, so morsel workers may run disjoint ranges of one
// plan concurrently. Every visited row and every probed posting ticks a
// cancellation checkpoint, so a cancelled request — or a morsel whose range
// was made moot by a witness in an earlier morsel — unwinds mid-scan within
// checkpointRows units of work; inj (nil for clean requests) injects
// per-probe latency for the chaos harness.
func (p *streamPlan) runRange(ctx context.Context, inj *faultinject.Injector, pc *pipelineCounters, lo, hi int, emit func(tp []int32) (stop bool, err error)) (stopped bool, err error) {
	tp := make([]int32, len(p.tables))
	var probes int64
	cc := newCanceller(ctx)

	check := func(depth int) bool {
		for i := range p.predsAt[depth] {
			if !p.predsAt[depth][i].eval(tp[p.predsAt[depth][i].slot]) {
				return false
			}
		}
		if len(p.orPreds) > 0 && depth == p.orDepth {
			hit := false
			for i := range p.orPreds {
				if p.orPreds[i].eval(tp[p.orPreds[i].slot]) {
					hit = true
					break
				}
			}
			if !hit {
				return false
			}
		}
		return true
	}

	var rec func(depth int) (bool, error)
	rec = func(depth int) (bool, error) {
		if depth == len(p.tables) {
			return emit(tp)
		}
		step := &p.steps[depth-1]
		if inj != nil {
			faultinject.Sleep(ctx, inj.ProbeDelay())
		}
		postings, ok := step.postings(tp[step.probeSlot])
		if !ok {
			return false, nil
		}
		probes++
		for _, ri := range postings {
			if err := cc.tick(); err != nil {
				return false, err
			}
			tp[depth] = ri
			if !check(depth) {
				continue
			}
			stop, err := rec(depth + 1)
			if stop || err != nil {
				return stop, err
			}
		}
		return false, nil
	}

	visit := func(ri int32) (bool, error) {
		if err := cc.tick(); err != nil {
			return false, err
		}
		tp[0] = ri
		if !check(0) {
			return false, nil
		}
		return rec(1)
	}

	defer func() { pc.add(&pc.indexProbes, probes) }()
	if err := ctx.Err(); err != nil {
		return false, err
	}
	if p.seeded {
		for _, ri := range p.rootRows[lo:hi] {
			if stop, err := visit(ri); stop || err != nil {
				return stop, err
			}
		}
		return false, nil
	}
	for i := lo; i < hi; i++ {
		if stop, err := visit(int32(i)); stop || err != nil {
			return stop, err
		}
	}
	return false, nil
}

// existsMorsels is the flat witness probe fanned over morsels: each worker
// short-circuits its own morsel on a local witness; the run's watermark
// cancels morsels above the lowest decisive one; and resolve() returns the
// outcome of the lowest decided morsel — the exact event (witness or error)
// the sequential scan would have hit first, so answers and errors are
// indistinguishable from the single-threaded path.
func (p *streamPlan) existsMorsels(ctx context.Context, inj *faultinject.Injector, pc *pipelineCounters, pool *WorkerPool, msize int) (bool, error) {
	witness := func([]int32) (bool, error) { return true, nil }
	n := p.domainLen()
	morsels := storage.Morsels(n, msize)
	if len(morsels) < 2 {
		return p.runRange(ctx, inj, pc, 0, n, witness)
	}
	res := runMorsels(ctx, pool, morsels, func(mctx context.Context, m int) (bool, error) {
		return p.runRange(mctx, inj, pc, morsels[m].Lo, morsels[m].Hi, witness)
	})
	pc.addMorselRun(res)
	return res.found, res.err
}

// streamExists answers an exists query through the vectorized streaming
// pipeline. handled=false means the query could not be compiled
// (structurally broken path, predicate outside it, or an unsupported HAVING
// shape); the caller must fall back to the materializing path, which
// reproduces the reference behavior — including its error messages —
// exactly.
func streamExists(ctx context.Context, db *storage.Database, eq ExistsQuery, pc *pipelineCounters) (ok, handled bool, err error) {
	grouped := len(eq.GroupBy) > 0 || len(eq.Havings) > 0
	plan, perr := buildStreamPlan(db, eq, !grouped)
	if perr != nil {
		return false, false, nil
	}
	inj := faultinject.From(ctx)
	pool := PoolFrom(ctx)
	if !grouped {
		if plan.seeded {
			pc.add(&pc.indexSeeds, 1)
		}
		if pool != nil {
			found, rerr := plan.existsMorsels(ctx, inj, pc, pool, MorselSizeFrom(ctx))
			return found, true, rerr
		}
		found := false
		rerr := plan.run(ctx, inj, pc, func([]int32) (bool, error) {
			found = true
			return true, nil
		})
		return found, true, rerr
	}
	if pool != nil {
		ok, handled, err = streamGroupedExistsMorsels(ctx, inj, plan, eq, pc, pool, MorselSizeFrom(ctx))
	} else {
		ok, handled, err = streamGroupedExists(ctx, inj, plan, eq, pc)
	}
	if handled && plan.seeded {
		// Counted only once the probe is actually streamed, so fallbacks
		// (e.g. unsupported HAVING shapes) don't inflate pushdown coverage.
		pc.add(&pc.indexSeeds, 1)
	}
	return ok, handled, err
}

// groupAcc accumulates one column's aggregates over a streamed group,
// mirroring evalAggregate's accumulation exactly (including NULL handling
// and first-value semantics for unaggregated HAVING columns). The first
// non-numeric value is recorded rather than rejected eagerly: the reference
// path evaluates HAVING aggregates lazily per group and short-circuits on
// the first failing condition, so a SUM/AVG type error must only surface if
// that aggregate is actually evaluated.
type groupAcc struct {
	count    int
	sum      float64
	min, max sqlir.Value
	first    sqlir.Value
	hasFirst bool
	bad      sqlir.Value // first non-null non-numeric value, for SUM/AVG
	hasBad   bool
}

// observe folds one cell into the accumulator (evalAggregate's loop body).
func (a *groupAcc) observe(v sqlir.Value) {
	if !a.hasFirst {
		a.first, a.hasFirst = v, true
	}
	if v.IsNull() {
		return
	}
	if !a.hasBad && v.Kind != sqlir.KindNumber {
		a.bad, a.hasBad = v, true
	}
	if a.count == 0 {
		a.min, a.max = v, v
	} else {
		if v.Less(a.min) {
			a.min = v
		}
		if a.max.Less(v) {
			a.max = v
		}
	}
	if v.Kind == sqlir.KindNumber {
		a.sum += v.Num
	}
	a.count++
}

type groupState struct {
	rows int
	accs []groupAcc
}

// checkGroupHavings evaluates the HAVING conditions over streamed group
// states in discovery order, shared by both streaming pipelines.
func checkGroupHavings(order []*groupState, refs []sqlir.ColumnRef, colAt map[sqlir.ColumnRef]int, eq ExistsQuery) (ok, handled bool, err error) {
	for _, st := range order {
		pass := true
		for _, h := range eq.Havings {
			hv, herr := streamedHavingValue(st, refs, colAt, h)
			if herr != nil {
				return false, true, herr
			}
			if !h.Op.Eval(hv, h.Val) {
				pass = false
				break
			}
		}
		if pass && (st.rows > 0 || len(eq.GroupBy) == 0) {
			return true, true, nil
		}
	}
	return false, true, nil
}

// keyCol/aggCol bind one GROUP BY or HAVING column to its slot and vector.
type keyCol struct {
	slot int
	vec  *storage.ColumnVec
}
type aggCol struct {
	slot int
	vec  *storage.ColumnVec
}

// groupedBinding is an exists query's grouping shape compiled against a
// stream plan, shared by the sequential and morsel grouped pipelines so
// both reject exactly the same shapes (ok=false → materializing fallback).
type groupedBinding struct {
	keys  []keyCol
	cols  []aggCol
	refs  []sqlir.ColumnRef
	colAt map[sqlir.ColumnRef]int
}

// bindGrouped resolves GROUP BY keys and HAVING aggregate columns.
// ok=false means the shape is unsupported (or a column fails to bind) and
// the caller must fall back to the materializing path, which reproduces the
// reference behavior — including its error messages — exactly.
func bindGrouped(plan *streamPlan, eq ExistsQuery) (gb groupedBinding, ok bool) {
	gb.keys = make([]keyCol, 0, len(eq.GroupBy))
	for _, g := range eq.GroupBy {
		slot, ci, berr := plan.bindCol(g)
		if berr != nil {
			return gb, false
		}
		gb.keys = append(gb.keys, keyCol{slot, plan.tables[slot].VectorAt(ci)})
	}
	gb.colAt = map[sqlir.ColumnRef]int{}
	for _, h := range eq.Havings {
		if h.Col.IsStar() {
			if h.Agg != sqlir.AggCount {
				return gb, false // reference path reports the error
			}
			continue
		}
		if h.Agg > sqlir.AggAvg {
			return gb, false
		}
		if _, seen := gb.colAt[h.Col]; !seen {
			slot, ci, berr := plan.bindCol(h.Col)
			if berr != nil {
				return gb, false
			}
			gb.colAt[h.Col] = len(gb.cols)
			gb.cols = append(gb.cols, aggCol{slot: slot, vec: plan.tables[slot].VectorAt(ci)})
			gb.refs = append(gb.refs, h.Col)
		}
	}
	return gb, true
}

// streamGroupedExists streams matching tuples into per-group aggregate
// states — no tuple buffering — then checks HAVING per group. The plan keeps
// reference enumeration order, so group discovery order and floating-point
// accumulation order match the materializing path bit for bit. Group keys
// are fixed-width binary encodings of the typed cells (dictionary code or
// float bits), not formatted strings.
func streamGroupedExists(ctx context.Context, inj *faultinject.Injector, plan *streamPlan, eq ExistsQuery, pc *pipelineCounters) (ok, handled bool, err error) {
	gb, bok := bindGrouped(plan, eq)
	if !bok {
		return false, false, nil
	}
	keys, cols, refs, colAt := gb.keys, gb.cols, gb.refs, gb.colAt

	var order []*groupState
	newState := func() *groupState {
		st := &groupState{accs: make([]groupAcc, len(cols))}
		order = append(order, st)
		return st
	}
	if len(eq.GroupBy) == 0 {
		// SQL's implicit single group exists even over zero rows.
		newState()
	}

	// Group-state lookup, specialized to the key shape. A single-column key
	// — the overwhelmingly common grouping — is looked up directly by float
	// bits or dictionary code through the runtime's fast integer map paths,
	// with NULL (and NaN, which a float map could never find again) routed
	// to dedicated states. Multi-column keys fall back to the fixed-width
	// binary encoding. Each specialization partitions rows exactly as
	// Value.Equal does, so group contents match the reference path.
	var getState func(tp []int32) *groupState
	switch {
	case len(eq.GroupBy) == 0:
		st := order[0]
		getState = func([]int32) *groupState { return st }
	case len(keys) == 1 && keys[0].vec.Type() == sqlir.TypeNumber:
		k := keys[0]
		var nullState, nanState *groupState
		fm := map[uint64]*groupState{}
		getState = func(tp []int32) *groupState {
			ri := int(tp[k.slot])
			if k.vec.IsNull(ri) {
				if nullState == nil {
					nullState = newState()
				}
				return nullState
			}
			f := k.vec.Num(ri)
			if f != f {
				// NaN: the pre-refactor string key grouped all NaNs
				// together; a float-keyed map never would.
				if nanState == nil {
					nanState = newState()
				}
				return nanState
			}
			if f == 0 {
				f = 0 // collapse -0.0 onto +0.0, as Value.Equal does
			}
			b := math.Float64bits(f)
			st, ok := fm[b]
			if !ok {
				st = newState()
				fm[b] = st
			}
			return st
		}
	case len(keys) == 1 && keys[0].vec.Type() == sqlir.TypeText:
		k := keys[0]
		var nullState *groupState
		cm := map[uint32]*groupState{}
		getState = func(tp []int32) *groupState {
			ri := int(tp[k.slot])
			if k.vec.IsNull(ri) {
				if nullState == nil {
					nullState = newState()
				}
				return nullState
			}
			c := k.vec.Code(ri)
			st, ok := cm[c]
			if !ok {
				st = newState()
				cm[c] = st
			}
			return st
		}
	default:
		states := map[string]*groupState{}
		var keyBuf []byte
		getState = func(tp []int32) *groupState {
			keyBuf = keyBuf[:0]
			for _, k := range keys {
				keyBuf = appendVecKey(keyBuf, k.vec, int(tp[k.slot]))
			}
			st, ok := states[string(keyBuf)]
			if !ok {
				st = &groupState{accs: make([]groupAcc, len(cols))}
				order = append(order, st)
				states[string(keyBuf)] = st
			}
			return st
		}
	}

	rerr := plan.run(ctx, inj, pc, func(tp []int32) (bool, error) {
		st := getState(tp)
		st.rows++
		for i := range cols {
			st.accs[i].observe(cols[i].vec.Value(int(tp[cols[i].slot])))
		}
		return false, nil
	})
	if rerr != nil {
		return false, true, rerr
	}
	return checkGroupHavings(order, refs, colAt, eq)
}

// streamedHavingValue reads one HAVING aggregate off a streamed group state,
// with the same empty-group and non-numeric-rejection semantics as
// evalAggregate — in particular, SUM/AVG over non-numeric data only errors
// when that aggregate is actually evaluated for a group.
func streamedHavingValue(st *groupState, refs []sqlir.ColumnRef, colAt map[sqlir.ColumnRef]int, h sqlir.HavingExpr) (sqlir.Value, error) {
	if h.Col.IsStar() {
		return sqlir.NewInt(st.rows), nil
	}
	i := colAt[h.Col]
	a := st.accs[i]
	switch h.Agg {
	case sqlir.AggNone:
		if st.rows == 0 {
			return sqlir.Null(), nil
		}
		return a.first, nil
	case sqlir.AggCount:
		return sqlir.NewInt(a.count), nil
	case sqlir.AggMin:
		return a.min, nil
	case sqlir.AggMax:
		return a.max, nil
	case sqlir.AggSum:
		if a.hasBad {
			return sqlir.Null(), errNonNumericAgg(refs[i], a.bad)
		}
		if a.count == 0 {
			return sqlir.Null(), nil
		}
		return sqlir.NewNumber(a.sum), nil
	case sqlir.AggAvg:
		if a.hasBad {
			return sqlir.Null(), errNonNumericAgg(refs[i], a.bad)
		}
		if a.count == 0 {
			return sqlir.Null(), nil
		}
		return sqlir.NewNumber(a.sum / float64(a.count)), nil
	default:
		return sqlir.Null(), nil
	}
}

// errNonNumericAgg is shared by the streaming and materializing aggregate
// evaluators so both paths reject SUM/AVG over non-numeric data identically.
func errNonNumericAgg(col sqlir.ColumnRef, v sqlir.Value) error {
	return fmt.Errorf("sqlexec: SUM/AVG over non-numeric value %s in column %s", v, col)
}

// appendVecKey appends a fixed-width, kind-tagged binary encoding of one
// cell to a group-key buffer: 'z' for NULL, 'c' + the 4-byte dictionary
// code for text, 'n' + the 8-byte float bits for numbers (-0 normalized to
// +0, matching Value.Equal). Each tag determines its payload length, so the
// concatenation over key columns is prefix-free and therefore injective —
// key equality coincides with Value.Equal per column, with none of
// appendValueKey's decimal float formatting.
func appendVecKey(buf []byte, vec *storage.ColumnVec, ri int) []byte {
	if vec.IsNull(ri) {
		return append(buf, 'z')
	}
	switch vec.Type() {
	case sqlir.TypeNumber:
		f := vec.Num(ri)
		if f == 0 {
			f = 0 // collapse -0.0 onto +0.0, which Value.Equal treats as equal
		}
		if f != f {
			// Canonicalize NaN payloads: the reference key renders every
			// NaN as the same string, so all NaNs must share one group.
			f = math.NaN()
		}
		return binary.LittleEndian.AppendUint64(append(buf, 'n'), math.Float64bits(f))
	case sqlir.TypeText:
		return binary.LittleEndian.AppendUint32(append(buf, 'c'), vec.Code(ri))
	default:
		return append(buf, 'z')
	}
}

// appendValueKey appends an injective, kind-tagged encoding of v to buf —
// the shared key builder for the materializing executor's grouping and
// DISTINCT (and the row-path pipeline's streamed group states). Text is
// length-prefixed so payloads containing the separator byte cannot collide
// across adjacent values; numbers rely on FormatFloat 'g/-1' round-tripping
// exactly. Key equality therefore coincides with Value.Equal on
// concatenated encodings.
func appendValueKey(buf []byte, v sqlir.Value) []byte {
	switch v.Kind {
	case sqlir.KindText:
		buf = append(buf, 't')
		buf = strconv.AppendInt(buf, int64(len(v.Text)), 10)
		buf = append(buf, ':')
		buf = append(buf, v.Text...)
	case sqlir.KindNumber:
		buf = append(buf, 'n')
		if v.Num == 0 {
			buf = append(buf, '0') // normalize -0.0, which Value.Equal treats as 0
		} else {
			buf = strconv.AppendFloat(buf, v.Num, 'g', -1, 64)
		}
	default:
		buf = append(buf, 'z')
	}
	return append(buf, 0)
}
