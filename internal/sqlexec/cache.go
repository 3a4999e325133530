package sqlexec

import (
	"context"
	"sort"
	"strings"
	"sync"

	"github.com/duoquest/duoquest/internal/sqlir"
	"github.com/duoquest/duoquest/internal/storage"
)

// JoinCache memoizes materialized join paths so the verifier's many
// verification queries over the same FROM clause share one join computation
// (§3.4's cost concern: executing verification queries dominates). A cache
// is safe for concurrent use: the enumerator's verification worker pool
// issues overlapping Exists/Execute calls, and concurrent requests for the
// same join path share a single materialization instead of duplicating it.
//
// A cache may outlive one request — the service layer shares one JoinCache
// per database epoch across all requests. The cache assumes its database is
// an immutable view (the service layer hands it a frozen epoch snapshot, see
// storage.Database.Snapshot): memos are never invalidated, so a write to the
// live database can never evict another reader's warm joins — readers that
// want the new rows use a new snapshot's cache. Handing a JoinCache a live,
// still-mutating database is not supported.
type JoinCache struct {
	db *storage.Database
	mu sync.Mutex
	m  map[string]*joinEntry

	pc pipelineCounters
}

// joinEntry is one memoized join. The entry lock gates materialization so
// that concurrent first requests for a signature compute the join once and
// everyone else blocks until it is ready. Unlike a sync.Once, a transient
// failure — the computing request was cancelled, hit its deadline, or drew
// an injected fault — leaves the entry unfilled, so the cache is never
// poisoned by one request's fate and the next healthy request recomputes.
type joinEntry struct {
	mu   sync.Mutex
	done bool
	rel  *relation
	err  error

	// jp is the path that first requested this signature, recorded at entry
	// creation (immutable afterwards) so WarmFrom can re-materialize the
	// join against a newer snapshot without reverse-parsing the signature.
	jp *sqlir.JoinPath
}

// NewJoinCache builds a cache for a database (normally a frozen epoch
// snapshot; see the type comment).
func NewJoinCache(db *storage.Database) *JoinCache {
	return &JoinCache{db: db, m: map[string]*joinEntry{}}
}

// NewJoinCacheFrom builds a cache for a new epoch snapshot, carrying
// forward the previous epoch's memoized joins whose paths touch only
// tables unchanged between the two snapshots. Unchanged tables share the
// same frozen *Table across epochs (storage.Database.Snapshot reuses
// them), so a carried relation is bit-identical to what the new cache
// would recompute; paths through a changed table are not carried and
// rebuild on demand. prev may still be serving other readers — entries
// are copied, never moved.
func NewJoinCacheFrom(db *storage.Database, prev *JoinCache) *JoinCache {
	c := NewJoinCache(db)
	if prev == nil {
		return c
	}
	// Snapshot the entry set first: holding prev.mu while taking entry
	// locks would invert the entry→cache lock order build uses on its
	// prefix probe and could deadlock with an in-flight materialization.
	prev.mu.Lock()
	entries := make(map[string]*joinEntry, len(prev.m))
	for sig, e := range prev.m {
		entries[sig] = e
	}
	prev.mu.Unlock()
	for sig, e := range entries {
		if !carriable(db, prev.db, sig) {
			continue
		}
		e.mu.Lock()
		done, rel, err := e.done, e.rel, e.err
		e.mu.Unlock()
		if done && err == nil {
			c.m[sig] = &joinEntry{done: true, rel: rel, jp: e.jp}
		}
	}
	return c
}

// WarmFrom re-materializes, against this cache's snapshot, every join path
// the previous epoch's cache had memoized but this cache did not carry
// forward (the path touches a changed table). The writer calls this right
// after publishing an epoch: the write pays to rebuild exactly what it
// invalidated, so the next reader's latency stays flat across the epoch
// boundary instead of spiking on cold joins. Best-effort — a failed build
// leaves the entry for the next reader to retry.
func (c *JoinCache) WarmFrom(ctx context.Context, prev *JoinCache) {
	if prev == nil {
		return
	}
	prev.mu.Lock()
	sigs := make([]string, 0, len(prev.m))
	paths := make([]*sqlir.JoinPath, 0, len(prev.m))
	for sig, e := range prev.m {
		sigs = append(sigs, sig)
		paths = append(paths, e.jp)
	}
	prev.mu.Unlock()
	for i, sig := range sigs {
		if paths[i] == nil {
			continue
		}
		c.mu.Lock()
		_, have := c.m[sig]
		c.mu.Unlock()
		if !have {
			c.materialize(ctx, paths[i]) //nolint:errcheck // warming is best-effort
		}
	}
}

// carriable reports whether every table named in a join signature resolves
// to the same frozen *Table in both snapshots (sig format: "t1,t2|edges").
func carriable(db, prev *storage.Database, sig string) bool {
	names, _, ok := strings.Cut(sig, "|")
	if !ok || names == "" {
		return false
	}
	for _, name := range strings.Split(names, ",") {
		t := db.Table(name)
		if t == nil || t != prev.Table(name) {
			return false
		}
	}
	return true
}

// Size returns the number of cached join paths.
func (c *JoinCache) Size() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m)
}

// Stats returns a snapshot of the streaming-pipeline and prefix-sharing
// counters accumulated by this cache.
func (c *JoinCache) Stats() PipelineStats {
	return c.pc.snapshot()
}

// joinSig canonically identifies a join path (table set + edge set).
func joinSig(jp *sqlir.JoinPath) string {
	if jp == nil {
		return ""
	}
	tables := append([]string{}, jp.Tables...)
	sort.Strings(tables)
	edges := make([]string, len(jp.Edges))
	for i, e := range jp.Edges {
		a := e.FromTable + "." + e.FromColumn
		b := e.ToTable + "." + e.ToColumn
		if a > b {
			a, b = b, a
		}
		edges[i] = a + "=" + b
	}
	sort.Strings(edges)
	return strings.Join(tables, ",") + "|" + strings.Join(edges, "&")
}

// materialize returns the (cached) joined relation for a path. Waiters for
// an in-flight materialization block on the entry lock; the holder's context
// governs the computation, and if it dies mid-join each waiter retries under
// its own context rather than inheriting the failure.
func (c *JoinCache) materialize(ctx context.Context, jp *sqlir.JoinPath) (*relation, error) {
	sig := joinSig(jp)
	c.mu.Lock()
	e, ok := c.m[sig]
	if !ok {
		e = &joinEntry{jp: jp}
		c.m[sig] = e
	}
	c.mu.Unlock()
	e.mu.Lock()
	defer e.mu.Unlock()
	if !e.done {
		rel, err := c.build(ctx, jp)
		if err != nil && transientErr(err) {
			// This request's fate, not the join's: report it to the caller
			// but leave the entry unfilled for the next request.
			return nil, err
		}
		e.rel, e.err = rel, err
		e.done = true
	}
	return e.rel, e.err
}

// build materializes a join path, reusing the cached prefix relation when
// one exists: sibling enumeration states that already joined A⋈B extend it
// by one edge to probe A⋈B⋈C instead of re-joining the whole path. The
// prefix is the path minus its last canonical edge (orientEdges), whose
// canonical order is the full path's minus that edge, so an extended
// prefix lists its tuples in exactly the order a from-scratch join would.
// Edgeless or malformed paths go through the reference join, which also
// reproduces its error messages.
func (c *JoinCache) build(ctx context.Context, jp *sqlir.JoinPath) (*relation, error) {
	if jp == nil || len(jp.Edges) == 0 {
		c.pc.add(&c.pc.joinsBuilt, 1)
		return join(ctx, c.db, jp, &c.pc)
	}
	root, pes, _, oerr := orientEdges(c.db, jp)
	if oerr != nil {
		c.pc.add(&c.pc.joinsBuilt, 1)
		return join(ctx, c.db, jp, &c.pc) // malformed; join reports the reference error
	}
	last := pes[len(pes)-1]
	prefix := &sqlir.JoinPath{Tables: []string{root}}
	for _, pe := range pes[:len(pes)-1] {
		prefix.Tables = append(prefix.Tables, pe.b)
		prefix.Edges = append(prefix.Edges, pe.edge())
	}
	c.mu.Lock()
	_, had := c.m[joinSig(prefix)]
	c.mu.Unlock()
	prel, err := c.materialize(ctx, prefix)
	if err != nil {
		return nil, err
	}
	if had {
		c.pc.add(&c.pc.prefixHits, 1)
	}
	return extendRelation(ctx, c.db, prel, last, &c.pc)
}

// Exists is Exists through the streaming pipeline, with this cache's
// counters and its memoized joins backing the materializing fallback.
func (c *JoinCache) Exists(eq ExistsQuery) (bool, error) {
	return c.ExistsCtx(context.Background(), eq)
}

// ExistsCtx is the cache-backed Exists under a request context.
func (c *JoinCache) ExistsCtx(ctx context.Context, eq ExistsQuery) (bool, error) {
	return existsWith(ctx, c.db, eq, &c.pc, func(jp *sqlir.JoinPath) (*relation, error) {
		return c.materialize(ctx, jp)
	})
}
