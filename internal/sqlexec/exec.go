// Package sqlexec executes complete SPJA queries (the paper's task scope,
// §2.5) against the in-memory storage engine: inner FK-PK joins, flat AND/OR
// selection, grouping with the five aggregates, HAVING, ORDER BY, LIMIT and
// DISTINCT. The verifier's column-wise and row-wise verification queries
// (Examples 3.5 and 3.6) run through the same engine via Exists.
package sqlexec

import (
	"context"
	"fmt"
	"sort"

	"github.com/duoquest/duoquest/internal/sqlir"
	"github.com/duoquest/duoquest/internal/storage"
)

// Result is a materialized query result.
type Result struct {
	Columns []string
	Types   []sqlir.Type
	Rows    [][]sqlir.Value
}

// tuple is one joined row: per-slot row indexes into the slot's table.
// Index-based tuples keep join materialization allocation-light.
type tuple []int32

// relation is a working set of joined rows plus the table→slot map.
type relation struct {
	slots  map[string]int
	tables []*storage.Table // per slot
	tuples []tuple
}

// Execute runs a complete query and materializes its result.
func Execute(db *storage.Database, q *sqlir.Query) (*Result, error) {
	return ExecuteCtx(context.Background(), db, q)
}

// ExecuteCtx is Execute under a request context: join, filter, and grouping
// loops poll ctx at checkpoint boundaries and unwind with ctx.Err().
func ExecuteCtx(ctx context.Context, db *storage.Database, q *sqlir.Query) (*Result, error) {
	if q == nil || !q.Complete() {
		return nil, fmt.Errorf("sqlexec: query is not complete: %v", q)
	}
	rel, err := join(ctx, db, q.From, &discardCounters)
	if err != nil {
		return nil, err
	}
	return executeOn(ctx, db, rel, q, &discardCounters)
}

// Execute runs a complete query reusing the cache's materialized join.
func (c *JoinCache) Execute(q *sqlir.Query) (*Result, error) {
	return c.ExecuteCtx(context.Background(), q)
}

// ExecuteCtx is the cache-backed Execute under a request context. The
// materialization itself is shared across requests, so a cancelled
// materialization is not stored (see materialize).
func (c *JoinCache) ExecuteCtx(ctx context.Context, q *sqlir.Query) (*Result, error) {
	if q == nil || !q.Complete() {
		return nil, fmt.Errorf("sqlexec: query is not complete: %v", q)
	}
	rel, err := c.materialize(ctx, q.From)
	if err != nil {
		return nil, err
	}
	return executeOn(ctx, c.db, rel, q, &c.pc)
}

// executeOn evaluates a complete query over a pre-joined relation. The
// WHERE filter runs morsel-parallel when the context carries a pool; the
// group/aggregate/order loop below stays sequential — its interleaved
// HAVING and select-aggregate evaluation order is part of the reference
// error semantics, and after filtering it touches only group-sized data.
func executeOn(ctx context.Context, db *storage.Database, rel *relation, q *sqlir.Query, pc *pipelineCounters) (*Result, error) {
	rows, err := filter(ctx, rel, q.Where, q.WhereState, pc)
	if err != nil {
		return nil, err
	}
	cc := newCanceller(ctx)

	needsGroup := q.GroupByState == sqlir.ClausePresent || q.HasAggregate() ||
		(q.OrderByState == sqlir.ClausePresent && q.OrderBy.Key.Agg != sqlir.AggNone)

	res := &Result{}
	for _, s := range q.Select {
		res.Columns = append(res.Columns, s.String())
		ty, ok := db.Schema.Resolve(s.Col)
		if !ok {
			return nil, fmt.Errorf("sqlexec: unknown column %s", s.Col)
		}
		res.Types = append(res.Types, s.Agg.ResultType(ty))
	}

	type outRow struct {
		vals     []sqlir.Value
		orderKey sqlir.Value
	}
	var out []outRow

	sel := make([]colBinding, len(q.Select))
	for i, s := range q.Select {
		sel[i] = rel.bind(s.Col)
	}
	hasOrder := q.OrderByState == sqlir.ClausePresent
	var orderCol colBinding
	if hasOrder {
		orderCol = rel.bind(q.OrderBy.Key.Col)
	}

	if needsGroup {
		groups, err := groupRows(rel, rows, q.GroupBy)
		if err != nil {
			return nil, err
		}
		var havingCol colBinding
		if q.HavingState == sqlir.ClausePresent {
			havingCol = rel.bind(q.Having.Col)
		}
		for _, g := range groups {
			if err := cc.tick(); err != nil {
				return nil, err
			}
			if q.HavingState == sqlir.ClausePresent {
				hv, err := evalAggregate(g, q.Having.Agg, havingCol)
				if err != nil {
					return nil, err
				}
				if !q.Having.Op.Eval(hv, q.Having.Val) {
					continue
				}
			}
			r := outRow{vals: make([]sqlir.Value, len(sel))}
			for i, s := range q.Select {
				v, err := evalAggregate(g, s.Agg, sel[i])
				if err != nil {
					return nil, err
				}
				r.vals[i] = v
			}
			if hasOrder {
				v, err := evalAggregate(g, q.OrderBy.Key.Agg, orderCol)
				if err != nil {
					return nil, err
				}
				r.orderKey = v
			}
			out = append(out, r)
		}
	} else {
		for _, tp := range rows {
			if err := cc.tick(); err != nil {
				return nil, err
			}
			r := outRow{vals: make([]sqlir.Value, len(sel))}
			for i, b := range sel {
				v, err := b.value(tp)
				if err != nil {
					return nil, err
				}
				r.vals[i] = v
			}
			if hasOrder {
				v, err := orderCol.value(tp)
				if err != nil {
					return nil, err
				}
				r.orderKey = v
			}
			out = append(out, r)
		}
	}

	if q.Distinct {
		seen := map[string]bool{}
		dedup := out[:0]
		var buf []byte // reused row-key buffer: no per-row concatenation garbage
		for _, r := range out {
			buf = buf[:0]
			for _, v := range r.vals {
				buf = appendValueKey(buf, v)
			}
			if seen[string(buf)] {
				continue
			}
			seen[string(buf)] = true
			dedup = append(dedup, r)
		}
		out = dedup
	}

	if hasOrder {
		desc := q.OrderBy.Desc
		sort.SliceStable(out, func(i, j int) bool {
			c := out[i].orderKey.Compare(out[j].orderKey)
			if desc {
				return c > 0
			}
			return c < 0
		})
	}

	if q.LimitSet && q.Limit > 0 && len(out) > q.Limit {
		out = out[:q.Limit]
	}

	res.Rows = make([][]sqlir.Value, len(out))
	for i, r := range out {
		res.Rows[i] = r.vals
	}
	return res, nil
}

// join materializes the join path into a relation of joined tuples by
// index nested-loop joins on the FK-PK edges. The edges are walked in the
// path's canonical order (orientEdges), so the tuple order depends only on
// the path's table and edge sets: every path with the same signature
// materializes the same relation, whichever order its edges were written
// in and whichever prefix a JoinCache extended.
func join(ctx context.Context, db *storage.Database, jp *sqlir.JoinPath, pc *pipelineCounters) (*relation, error) {
	root, pes, _, err := orientEdges(db, jp)
	if err != nil {
		return nil, err
	}
	t0 := db.Table(root)
	rel := &relation{slots: map[string]int{root: 0}, tables: []*storage.Table{t0}}
	rel.tuples = make([]tuple, t0.NumRows())
	for i := range rel.tuples {
		rel.tuples[i] = tuple{int32(i)}
	}
	for _, pe := range pes {
		rel, err = extendRelation(ctx, db, rel, pe, pc)
		if err != nil {
			return nil, err
		}
	}
	return rel, nil
}

// extendRelation joins one more FK-PK edge onto a relation: table pe.a is
// already bound, pe.b is new (orientEdges has validated both), and each
// input tuple probes pe.b's posting-list index. It returns a new relation
// and leaves the input untouched, so cached join prefixes can be shared.
// With a pool in the context the probe loop fans out over morsels of the
// input tuples; per-morsel output slices are concatenated in morsel order,
// so the materialized tuple order is identical to the sequential probe.
func extendRelation(ctx context.Context, db *storage.Database, rel *relation, pe pathEdge, pc *pipelineCounters) (*relation, error) {
	exSlot := rel.slots[pe.a]
	nt := db.Table(pe.b)
	exVec := rel.tables[exSlot].Vector(pe.aCol)
	index, err := nt.CodeIndex(pe.bCol)
	if exVec == nil || err != nil {
		return nil, errEdgeUnknownColumn(pe)
	}
	next := &relation{
		slots:  make(map[string]int, len(rel.slots)+1),
		tables: append(append([]*storage.Table{}, rel.tables...), nt),
	}
	for t, s := range rel.slots {
		next.slots[t] = s
	}
	slot := len(rel.slots)
	next.slots[pe.b] = slot

	// probeRange extends one range of input tuples into a private output
	// slice. Tick per output tuple too: a fanning-out edge can append many
	// rows per input tuple, and the checkpoint cadence must follow the work
	// actually done, not the rows scanned.
	probeRange := func(ctx context.Context, lo, hi int) ([]tuple, error) {
		cc := newCanceller(ctx)
		var out []tuple
		for _, tp := range rel.tuples[lo:hi] {
			if err := cc.tick(); err != nil {
				return nil, err
			}
			for _, m := range index.Postings(exVec.Value(int(tp[exSlot]))) {
				if err := cc.tick(); err != nil {
					return nil, err
				}
				ext := make(tuple, len(tp)+1)
				copy(ext, tp)
				ext[slot] = m
				out = append(out, ext)
			}
		}
		return out, nil
	}

	if pool := PoolFrom(ctx); pool != nil {
		morsels := storage.Morsels(len(rel.tuples), MorselSizeFrom(ctx))
		if len(morsels) >= 2 {
			parts := make([][]tuple, len(morsels))
			res := runMorsels(ctx, pool, morsels, func(mctx context.Context, m int) (bool, error) {
				out, perr := probeRange(mctx, morsels[m].Lo, morsels[m].Hi)
				parts[m] = out
				return false, perr
			})
			pc.addMorselRun(res)
			if res.err != nil {
				return nil, res.err
			}
			total := 0
			for _, p := range parts {
				total += len(p)
			}
			next.tuples = make([]tuple, 0, total)
			for _, p := range parts {
				next.tuples = append(next.tuples, p...)
			}
			return next, nil
		}
	}
	out, err := probeRange(ctx, 0, len(rel.tuples))
	if err != nil {
		return nil, err
	}
	next.tuples = out
	return next, nil
}

// colBinding is a column reference resolved against a relation once per
// query: the tuple slot and that slot's typed column vector. A reference
// that does not resolve keeps its error, which surfaces only when a cell is
// actually read — the same point at which a per-cell lookup would fail, so
// a bad column over an empty relation is still no error.
type colBinding struct {
	ref  sqlir.ColumnRef
	slot int
	vec  *storage.ColumnVec
	err  error
}

// bind resolves a column reference against the relation's slots.
func (rel *relation) bind(c sqlir.ColumnRef) colBinding {
	slot, ok := rel.slots[c.Table]
	if !ok {
		return colBinding{ref: c, err: errColNotInPath(c)}
	}
	vec := rel.tables[slot].Vector(c.Column)
	if vec == nil {
		return colBinding{ref: c, err: errUnknownCol(c)}
	}
	return colBinding{ref: c, slot: slot, vec: vec}
}

// value reads the bound column's cell for one joined tuple.
func (b *colBinding) value(tp tuple) (sqlir.Value, error) {
	if b.err != nil {
		return sqlir.Null(), b.err
	}
	return b.vec.Value(int(tp[b.slot])), nil
}

// filter applies the WHERE clause. With a pool in the context the predicate
// loop fans out over morsels of the input tuples; per-morsel keep-lists are
// concatenated in morsel order, so the surviving tuples appear in exactly
// the sequential scan's order (grouping and ORDER BY downstream see
// bit-identical input).
func filter(ctx context.Context, rel *relation, w sqlir.Where, state sqlir.ClauseState, pc *pipelineCounters) ([]tuple, error) {
	if state != sqlir.ClausePresent || len(w.Preds) == 0 {
		return rel.tuples, nil
	}
	bw := rel.bindWhere(w)
	filterRange := func(ctx context.Context, lo, hi int) ([]tuple, error) {
		var out []tuple
		cc := newCanceller(ctx)
		for _, tp := range rel.tuples[lo:hi] {
			if err := cc.tick(); err != nil {
				return nil, err
			}
			ok, err := bw.eval(tp)
			if err != nil {
				return nil, err
			}
			if ok {
				out = append(out, tp)
			}
		}
		return out, nil
	}
	if pool := PoolFrom(ctx); pool != nil {
		morsels := storage.Morsels(len(rel.tuples), MorselSizeFrom(ctx))
		if len(morsels) >= 2 {
			parts := make([][]tuple, len(morsels))
			res := runMorsels(ctx, pool, morsels, func(mctx context.Context, m int) (bool, error) {
				out, ferr := filterRange(mctx, morsels[m].Lo, morsels[m].Hi)
				parts[m] = out
				return false, ferr
			})
			pc.addMorselRun(res)
			if res.err != nil {
				return nil, res.err
			}
			var out []tuple
			for _, p := range parts {
				out = append(out, p...)
			}
			return out, nil
		}
	}
	return filterRange(ctx, 0, len(rel.tuples))
}

// boundWhere is a flat WHERE clause whose columns are bound once per query.
type boundWhere struct {
	and   bool
	preds []sqlir.Predicate
	cols  []colBinding
}

// bindWhere binds every predicate column of a flat WHERE clause.
func (rel *relation) bindWhere(w sqlir.Where) boundWhere {
	bw := boundWhere{
		and:   w.Conj == sqlir.LogicAnd || len(w.Preds) == 1,
		preds: w.Preds,
		cols:  make([]colBinding, len(w.Preds)),
	}
	for i, p := range w.Preds {
		bw.cols[i] = rel.bind(p.Col)
	}
	return bw
}

// eval evaluates the flat conjunction/disjunction on one tuple.
func (bw *boundWhere) eval(tp tuple) (bool, error) {
	for i, p := range bw.preds {
		v, err := bw.cols[i].value(tp)
		if err != nil {
			return false, err
		}
		hit := p.Op.Eval(v, p.Val)
		if bw.and && !hit {
			return false, nil
		}
		if !bw.and && hit {
			return true, nil
		}
	}
	return bw.and, nil
}

// groupRows partitions tuples by the GROUP BY key. With no GROUP BY columns
// (pure aggregate query) all rows form a single group; with zero input rows
// a pure aggregate query still yields one empty group, matching SQL.
func groupRows(rel *relation, rows []tuple, groupBy []sqlir.ColumnRef) ([][]tuple, error) {
	if len(groupBy) == 0 {
		return [][]tuple{rows}, nil
	}
	keys := make([]colBinding, len(groupBy))
	for i, g := range groupBy {
		keys[i] = rel.bind(g)
	}
	idx := map[string]int{}
	var out [][]tuple
	var buf []byte // reused key buffer; the key string is allocated once per group
	for _, tp := range rows {
		buf = buf[:0]
		for i := range keys {
			v, err := keys[i].value(tp)
			if err != nil {
				return nil, err
			}
			buf = appendValueKey(buf, v)
		}
		if i, ok := idx[string(buf)]; ok {
			out[i] = append(out[i], tp)
		} else {
			idx[string(buf)] = len(out)
			out = append(out, []tuple{tp})
		}
	}
	return out, nil
}

// evalAggregate computes agg(col) over a group. AggNone returns the first
// row's value (the column is expected to be in the GROUP BY key).
func evalAggregate(group []tuple, agg sqlir.AggFunc, col colBinding) (sqlir.Value, error) {
	if agg == sqlir.AggNone {
		if len(group) == 0 {
			return sqlir.Null(), nil
		}
		return col.value(group[0])
	}
	if agg == sqlir.AggCount && col.ref.IsStar() {
		return sqlir.NewInt(len(group)), nil
	}
	var (
		count int
		sum   float64
		min   sqlir.Value
		max   sqlir.Value
	)
	for _, tp := range group {
		v, err := col.value(tp)
		if err != nil {
			return sqlir.Null(), err
		}
		if v.IsNull() {
			continue
		}
		if (agg == sqlir.AggSum || agg == sqlir.AggAvg) && v.Kind != sqlir.KindNumber {
			return sqlir.Null(), errNonNumericAgg(col.ref, v)
		}
		if count == 0 {
			min, max = v, v
		} else {
			if v.Less(min) {
				min = v
			}
			if max.Less(v) {
				max = v
			}
		}
		if v.Kind == sqlir.KindNumber {
			sum += v.Num
		}
		count++
	}
	switch agg {
	case sqlir.AggCount:
		return sqlir.NewInt(count), nil
	case sqlir.AggMin:
		return min, nil
	case sqlir.AggMax:
		return max, nil
	case sqlir.AggSum:
		if count == 0 {
			return sqlir.Null(), nil
		}
		return sqlir.NewNumber(sum), nil
	case sqlir.AggAvg:
		if count == 0 {
			return sqlir.Null(), nil
		}
		return sqlir.NewNumber(sum / float64(count)), nil
	default:
		return sqlir.Null(), fmt.Errorf("sqlexec: unknown aggregate %v", agg)
	}
}
