package main

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"

	"github.com/duoquest/duoquest/internal/sqlexec"
	"github.com/duoquest/duoquest/internal/sqlir"
	"github.com/duoquest/duoquest/internal/storage"
	"github.com/duoquest/duoquest/internal/tsq"
)

// gateReport is the output-correctness verdict on one phase.
type gateReport struct {
	checked    int      // candidates re-executed
	violations []string // first few violations, for the log
	nViolation int
	// tieDependent counts candidates whose sketch or preview holds only
	// under another order of rows that tie on the ORDER BY key than the
	// reference executor's (NOTES.md, ledger entry f).
	tieDependent int
	top1, topk   int // requests whose gold query ranked first / anywhere
}

// checkOutputs is the untimed correctness gate. Every returned candidate is
// re-executed on the epoch its request observed with the reference
// executor (sqlexec.Execute). The candidate must satisfy the request's table
// sketch, and its preview must be rows of its result, under some order SQL
// allows: rows that tie on the ORDER BY key (all rows, without ORDER BY) may
// come in any order, and a LIMIT may cut a tie group anywhere. Accuracy
// against the gold query is tallied beside it. Candidate lists themselves
// are not compared across runs: they are not stable under concurrent
// previews (NOTES.md, ledger entry a).
func checkOutputs(reads []outcome) gateReport {
	type job struct {
		o  *outcome
		ci int
	}
	var jobs []job
	for i := range reads {
		if reads[i].err == nil {
			for ci := range reads[i].cands {
				jobs = append(jobs, job{&reads[i], ci})
			}
		}
	}
	type verdict struct {
		ok, tieDep bool
		err        error
	}
	verdicts := make([]verdict, len(jobs))
	ref := newRefCache()
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < len(jobs); i = int(next.Add(1) - 1) {
				j := jobs[i]
				v := &verdicts[i]
				v.ok, v.tieDep, v.err = checkCandidate(ref, j.o.snap, j.o.cands[j.ci].Query, j.o.req.in.Sketch, j.o.previews[j.ci])
			}
		}()
	}
	wg.Wait()

	var g gateReport
	for i, j := range jobs {
		g.checked++
		v := verdicts[i]
		if v.tieDep {
			g.tieDependent++
		}
		if v.ok && v.err == nil {
			continue
		}
		g.nViolation++
		if len(g.violations) < 5 {
			why := "result does not satisfy the sketch or preview is not drawn from it"
			if v.err != nil {
				why = v.err.Error()
			}
			g.violations = append(g.violations, fmt.Sprintf("%s: candidate %d %s: %s", j.o.req.id, j.ci+1, j.o.cands[j.ci].Query, why))
		}
	}
	for _, o := range reads {
		for ci, c := range o.cands {
			if sqlir.Equivalent(c.Query, o.req.gold) {
				if ci == 0 {
					g.top1++
				}
				g.topk++
				break
			}
		}
	}
	return g
}

// refCache memoizes reference executions within one gate: blocks repeat
// candidates, and the reference executor is slow. Entries are keyed by the
// content of the data (storage.Fingerprint) and the query text, since
// snapshots of equal content are distinct objects across engines.
type refCache struct {
	mu  sync.Mutex
	m   map[refKey]*refEntry
	fps map[*storage.Database]uint64
}

type refKey struct {
	fingerprint uint64
	sql         string
}

type refEntry struct {
	once sync.Once
	res  *sqlexec.Result
	err  error
}

func newRefCache() *refCache {
	return &refCache{m: map[refKey]*refEntry{}, fps: map[*storage.Database]uint64{}}
}

func (c *refCache) execute(db *storage.Database, q *sqlir.Query) (*sqlexec.Result, error) {
	c.mu.Lock()
	fp, ok := c.fps[db]
	if !ok {
		fp = storage.Fingerprint(db)
		c.fps[db] = fp
	}
	k := refKey{fp, q.String()}
	e := c.m[k]
	if e == nil {
		e = &refEntry{}
		c.m[k] = e
	}
	c.mu.Unlock()
	e.once.Do(func() { e.res, e.err = sqlexec.Execute(db, q) })
	return e.res, e.err
}

// checkCandidate checks one candidate against its sketch and preview. ok
// reports that some order SQL allows satisfies both; tieDep that the
// reference executor's own order does not.
func checkCandidate(ref *refCache, db *storage.Database, q *sqlir.Query, sk *tsq.TSQ, preview [][]string) (ok, tieDep bool, err error) {
	res, err := ref.execute(db, q)
	if err != nil {
		return false, false, fmt.Errorf("reference execute: %w", err)
	}
	if sk.Satisfies(res) && isSubBag(preview, res.Rows) && len(preview) == min(len(res.Rows), previewCap) {
		return true, false, nil
	}
	rows, starts, err := tieGroups(db, q)
	if err != nil {
		return false, false, err
	}
	// The rows a LIMIT may keep: every tie group that starts before it.
	pool := rows
	if q.Limit > 0 {
		for _, st := range starts {
			if st >= q.Limit {
				pool = rows[:st]
				break
			}
		}
	}
	best := &sqlexec.Result{Types: res.Types, Rows: favorableOrder(rows, starts, sk, q.Limit)}
	ok = sk.Satisfies(best) && isSubBag(preview, pool) && len(preview) == min(len(res.Rows), previewCap)
	return ok, ok, nil
}

// tieGroups returns the candidate's rows without its LIMIT, in the
// reference order, and the start index of each run of rows that tie on the
// ORDER BY key. Without ORDER BY all rows form one group.
func tieGroups(db *storage.Database, q *sqlir.Query) (rows [][]sqlir.Value, starts []int, err error) {
	kq := q.Clone()
	kq.Limit = 0
	if q.OrderByState != sqlir.ClausePresent {
		res, err := sqlexec.Execute(db, kq)
		if err != nil {
			return nil, nil, fmt.Errorf("reference execute without limit: %w", err)
		}
		return res.Rows, []int{0}, nil
	}
	key := q.OrderBy.Key
	keyAt := -1
	for i, s := range q.Select {
		if s.Agg == key.Agg && s.Col == key.Col {
			keyAt = i
		}
	}
	if keyAt < 0 {
		if q.Distinct {
			// Projecting the key would change which rows DISTINCT keeps.
			return nil, nil, fmt.Errorf("DISTINCT with an unprojected ORDER BY key has no single tie order to check")
		}
		keyAt = len(kq.Select)
		kq.Select = append(kq.Select, sqlir.SelectItem{Agg: key.Agg, AggSet: true, Col: key.Col, ColSet: true})
	}
	res, err := sqlexec.Execute(db, kq)
	if err != nil {
		return nil, nil, fmt.Errorf("reference execute with the order key: %w", err)
	}
	for i, row := range res.Rows {
		if i == 0 || row[keyAt].Compare(res.Rows[i-1][keyAt]) != 0 {
			starts = append(starts, i)
		}
		rows = append(rows, row[:len(q.Select)])
	}
	return rows, starts, nil
}

// favorableOrder reorders rows within their tie groups so that rows
// matching the sketch's example tuples come first, in tuple order, and
// applies the limit. Each tuple takes the first unused matching row, from
// the group of the previous tuple's row onward when the sketch is sorted.
func favorableOrder(rows [][]sqlir.Value, starts []int, sk *tsq.TSQ, limit int) [][]sqlir.Value {
	groupOf := make([]int, len(rows))
	for g, st := range starts {
		end := len(rows)
		if g+1 < len(starts) {
			end = starts[g+1]
		}
		for r := st; r < end; r++ {
			groupOf[r] = g
		}
	}
	used := make([]bool, len(rows))
	first := make([][]int, len(starts)) // per group: rows placed first
	from := 0
	for _, tp := range sk.Tuples {
		for r := from; r < len(rows); r++ {
			if !used[r] && tupleMatches(tp, rows[r]) {
				used[r] = true
				g := groupOf[r]
				first[g] = append(first[g], r)
				if sk.Sorted {
					from = starts[g]
				}
				break
			}
		}
	}
	// Unassigned rows keep their reference order after each group's
	// assigned ones.
	out := make([][]sqlir.Value, 0, len(rows))
	for g, st := range starts {
		end := len(rows)
		if g+1 < len(starts) {
			end = starts[g+1]
		}
		for _, r := range first[g] {
			out = append(out, rows[r])
		}
		for r := st; r < end; r++ {
			if !used[r] {
				out = append(out, rows[r])
			}
		}
	}
	if limit > 0 && len(out) > limit {
		out = out[:limit]
	}
	return out
}

func tupleMatches(tp tsq.Tuple, row []sqlir.Value) bool {
	if len(tp) != len(row) {
		return false
	}
	for i, c := range tp {
		if !c.Matches(row[i]) {
			return false
		}
	}
	return true
}

// isSubBag reports whether the rendered preview rows are a sub-multiset of
// rows.
func isSubBag(preview [][]string, rows [][]sqlir.Value) bool {
	have := map[string]int{}
	for _, row := range rows {
		cells := make([]string, len(row))
		for ci, v := range row {
			cells[ci] = v.Display()
		}
		have[strings.Join(cells, "\x00")]++
	}
	for _, row := range preview {
		key := strings.Join(row, "\x00")
		if have[key] == 0 {
			return false
		}
		have[key]--
	}
	return true
}
