package service

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"

	"github.com/duoquest/duoquest/internal/sqlparse"
	"github.com/duoquest/duoquest/internal/storage"
)

// movieBatch is one deterministic ingest payload for the movies database:
// four movie rows keyed off base, with years spread around the workload's
// 1995 predicate so head-epoch readers genuinely see different answers.
func movieBatch(base int) []storage.ColumnData {
	const n = 4
	mids := make([]float64, n)
	titles := make([]string, n)
	years := make([]float64, n)
	for i := 0; i < n; i++ {
		mids[i] = float64(1000 + base + i)
		titles[i] = fmt.Sprintf("Ingest Movie %d", base+i)
		years[i] = float64(1980 + (base+i)%30)
	}
	return []storage.ColumnData{{Nums: mids}, {Texts: titles}, {Nums: years}}
}

// TestPinnedEpochDifferentialUnderIngest is the acceptance-criteria proof
// for epoch isolation: a session pinned at epoch E, running concurrently
// with live ingest, returns results byte-identical to the same workload run
// against a frozen pre-ingest copy of the database. The oracle engine never
// sees a write; the live engine takes 16 Append batches mid-flight.
func TestPinnedEpochDifferentialUnderIngest(t *testing.T) {
	var work []Input
	for _, w := range mixedWorkload() {
		if w.db == "movies" {
			work = append(work, w.in)
		}
	}

	// Oracle: a frozen copy — the same dataset, no ingest, sequential runs.
	oracle := newTestEngine(t, workloadOptions())
	os, err := oracle.Session("movies")
	if err != nil {
		t.Fatal(err)
	}
	want := make([][]string, len(work))
	for i, in := range work {
		res, err := os.Synthesize(context.Background(), in)
		if err != nil {
			t.Fatalf("oracle %d: %v", i, err)
		}
		want[i] = describe(res.Candidates)
	}

	// Live engine: pin the pre-ingest epoch, then ingest and read at once.
	live := newTestEngine(t, workloadOptions())
	pin, err := live.Snapshot("movies")
	if err != nil {
		t.Fatal(err)
	}
	preRows := pin.Database().Table("movie").NumRows()

	const writers, batchesPer = 2, 8
	const rounds = 3
	var wg sync.WaitGroup
	errs := make(chan error, writers*batchesPer+rounds*len(work))
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < batchesPer; i++ {
				if _, err := live.Append("movies", "movie", movieBatch((w*batchesPer+i)*4)); err != nil {
					errs <- fmt.Errorf("writer %d batch %d: %w", w, i, err)
					return
				}
			}
		}(w)
	}
	for r := 0; r < rounds; r++ {
		for i, in := range work {
			wg.Add(1)
			go func(r, i int, in Input) {
				defer wg.Done()
				res, err := pin.Synthesize(context.Background(), in)
				if err != nil {
					errs <- fmt.Errorf("round %d request %d: %w", r, i, err)
					return
				}
				if got := describe(res.Candidates); !equalStrings(got, want[i]) {
					errs <- fmt.Errorf("round %d request %d diverged from frozen oracle:\n got %v\nwant %v", r, i, got, want[i])
				}
			}(r, i, in)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// One more pinned request after ingest settles, so the lag accounting
	// below is deterministic.
	if res, err := pin.Synthesize(context.Background(), work[0]); err != nil {
		t.Fatal(err)
	} else if got := describe(res.Candidates); !equalStrings(got, want[0]) {
		t.Errorf("post-ingest pinned run diverged:\n got %v\nwant %v", got, want[0])
	}

	// The pinned view never moved; the head took every batch.
	const totalBatches = writers * batchesPer
	if got := pin.Database().Table("movie").NumRows(); got != preRows {
		t.Errorf("pinned movie rows = %d, want %d", got, preRows)
	}
	headDB, _ := live.Lookup("movies")
	if got := headDB.Snapshot().Table("movie").NumRows(); got != preRows+totalBatches*4 {
		t.Errorf("head movie rows = %d, want %d", got, preRows+totalBatches*4)
	}

	st := live.Stats().Databases[0]
	if st.Database != "movies" {
		t.Fatalf("stats order: %q", st.Database)
	}
	if st.Appends != totalBatches {
		t.Errorf("Appends = %d, want %d", st.Appends, totalBatches)
	}
	if st.HeadEpoch != pin.Epoch()+totalBatches {
		t.Errorf("HeadEpoch = %d, want %d", st.HeadEpoch, pin.Epoch()+totalBatches)
	}
	if st.EpochLagMax != totalBatches {
		t.Errorf("EpochLagMax = %d, want %d (final pinned request trails every batch)", st.EpochLagMax, totalBatches)
	}
	if st.EpochLagAvg <= 0 {
		t.Errorf("EpochLagAvg = %v, want > 0", st.EpochLagAvg)
	}
	var pinStats *EpochCacheStats
	for i := range st.Epochs {
		if st.Epochs[i].Epoch == pin.Epoch() {
			pinStats = &st.Epochs[i]
		}
	}
	if pinStats == nil {
		t.Fatalf("stats carry no shard entry for pinned epoch %d: %+v", pin.Epoch(), st.Epochs)
	}
	if wantReq := int64(rounds*len(work) + 1); pinStats.Requests != wantReq {
		t.Errorf("pinned shard requests = %d, want %d", pinStats.Requests, wantReq)
	}
}

// TestEpochRoutingAndErrors covers the request-level epoch surface:
// Input.Epoch resolution, shard sharing between equal epochs, pinned-session
// conflicts, and the loud failure for retired epochs.
func TestEpochRoutingAndErrors(t *testing.T) {
	e := newTestEngine(t, Config{MaxStates: 2000, MaxCandidates: 3})
	snap, err := e.Snapshot("movies")
	if err != nil {
		t.Fatal(err)
	}
	e0 := snap.Epoch()
	if _, err := e.Append("movies", "movie", movieBatch(0)); err != nil {
		t.Fatal(err)
	}

	// SnapshotAt the old epoch shares the already-built shard (one cache per
	// epoch, not per handle).
	old, err := e.SnapshotAt("movies", e0)
	if err != nil {
		t.Fatal(err)
	}
	if old.Epoch() != e0 || old.pin != snap.pin {
		t.Errorf("SnapshotAt(%d) pin = %+v, want the shard %p shared with the first handle", e0, old.pin, snap.pin)
	}

	// An unpinned session routes Input.Epoch to the same shards.
	s, err := e.Session("movies")
	if err != nil {
		t.Fatal(err)
	}
	if sh, err := s.shard(e0); err != nil || sh != snap.pin {
		t.Errorf("shard(%d) = %p, %v; want %p", e0, sh, err, snap.pin)
	}
	head, err := s.shard(0)
	if err != nil {
		t.Fatal(err)
	}
	if head.epoch != e0+1 {
		t.Errorf("head shard epoch = %d, want %d", head.epoch, e0+1)
	}

	// A pinned handle accepts its own epoch and rejects any other.
	in := moviesInput()
	in.Epoch = e0
	if _, err := snap.Synthesize(context.Background(), in); err != nil {
		t.Errorf("pinned synthesize at own epoch: %v", err)
	}
	in.Epoch = e0 + 1
	if _, err := snap.Synthesize(context.Background(), in); err == nil || !strings.Contains(err.Error(), "pinned") {
		t.Errorf("conflicting epoch error = %v, want pinned-session conflict", err)
	}

	// Sustained ingest past the storage retention ring: epochs with a live
	// service shard stay servable (the shard holds the frozen database), but
	// an epoch nobody ever read — no shard, and storage has retired the
	// number — is a loud error, not stale data.
	for i := 1; i < 20; i++ {
		if _, err := e.Append("movies", "movie", movieBatch(i*4)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := e.SnapshotAt("movies", e0); err != nil {
		t.Errorf("SnapshotAt(%d) with a live shard after 20 epochs: %v, want success", e0, err)
	}
	if sh, err := s.shard(e0); err != nil || sh != snap.pin {
		t.Errorf("shard(%d) = %p, %v; want the live pinned shard %p", e0, sh, err, snap.pin)
	}
	unread := e0 + 2 // published by an append, never read, retired by storage
	if _, err := e.SnapshotAt("movies", unread); err == nil {
		t.Errorf("SnapshotAt(%d) with no shard after 20 epochs should fail (retention)", unread)
	}
	if _, err := s.shard(unread); err == nil {
		t.Errorf("shard(%d) with no shard after 20 epochs should fail (retention)", unread)
	}
}

// TestServiceZeroEvictionsOnAppend is the service-level half of the
// zero-eviction regression: an Engine.Append during an in-flight pinned
// session must not evict one memo from that session's shared caches, while
// the next unpinned request observes the new rows.
func TestServiceZeroEvictionsOnAppend(t *testing.T) {
	e := newTestEngine(t, Config{MaxStates: 3000, MaxCandidates: 4})
	snap, err := e.Snapshot("movies")
	if err != nil {
		t.Fatal(err)
	}
	cold, err := snap.Synthesize(context.Background(), moviesInput())
	if err != nil {
		t.Fatal(err)
	}
	q, err := sqlparse.Parse(snap.Database().Schema, "SELECT title FROM movie WHERE year = 1994")
	if err != nil {
		t.Fatal(err)
	}
	prev, err := snap.Preview(q, 0)
	if err != nil {
		t.Fatal(err)
	}
	pinnedRows := len(prev.Rows)
	joins := snap.pin.cache.Joins()
	size, built := joins.Size(), joins.Stats().JoinsBuilt

	if _, err := e.Append("movies", "movie", []storage.ColumnData{
		{Nums: []float64{999}},
		{Texts: []string{"The Shawshank Redemption"}},
		{Nums: []float64{1994}},
	}); err != nil {
		t.Fatal(err)
	}

	warm, err := snap.Synthesize(context.Background(), moviesInput())
	if err != nil {
		t.Fatal(err)
	}
	if got, want := describe(warm.Candidates), describe(cold.Candidates); !equalStrings(got, want) {
		t.Errorf("pinned results changed across append:\n got %v\nwant %v", got, want)
	}
	if got := joins.Size(); got != size {
		t.Errorf("pinned cache size after append = %d, want %d (zero evictions)", got, size)
	}
	if got := joins.Stats().JoinsBuilt; got != built {
		t.Errorf("joins built after append = %d, want %d (warm rerun is pure hits)", got, built)
	}
	prev, err = snap.Preview(q, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(prev.Rows) != pinnedRows {
		t.Errorf("pinned preview rows = %d, want %d", len(prev.Rows), pinnedRows)
	}

	// The head epoch sees the appended 1994 title.
	s, err := e.Session("movies")
	if err != nil {
		t.Fatal(err)
	}
	prev, err = s.Preview(q, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(prev.Rows) != pinnedRows+1 {
		t.Errorf("head preview rows = %d, want %d", len(prev.Rows), pinnedRows+1)
	}
}

// TestSnapshotSurvivesShardRetirement: once enough epochs are published
// the pinned shard falls out of the live map, but the handle keeps serving
// its epoch — retirement ends discoverability and per-epoch stats, not
// reads.
func TestSnapshotSurvivesShardRetirement(t *testing.T) {
	e := newTestEngine(t, Config{MaxStates: 2000, MaxCandidates: 3})
	snap, err := e.Snapshot("movies")
	if err != nil {
		t.Fatal(err)
	}
	preRows := snap.Database().Table("movie").NumRows()
	cold, err := snap.Synthesize(context.Background(), moviesInput())
	if err != nil {
		t.Fatal(err)
	}

	// Each append plus a head-resolving request creates a new shard; twice
	// the retention bound of them retires the pinned shard.
	s, err := e.Session("movies")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2*shardRetention; i++ {
		if _, err := e.Append("movies", "movie", movieBatch(i*4)); err != nil {
			t.Fatal(err)
		}
		if _, err := s.shard(0); err != nil {
			t.Fatal(err)
		}
	}

	st := e.Stats().Databases[0]
	if st.EpochsLive > shardRetention {
		t.Errorf("EpochsLive = %d, want <= %d", st.EpochsLive, shardRetention)
	}
	if st.EpochsRetired < 1 {
		t.Errorf("EpochsRetired = %d, want >= 1", st.EpochsRetired)
	}
	for _, ep := range st.Epochs {
		if ep.Epoch == snap.Epoch() {
			t.Errorf("pinned epoch %d still listed live after retirement", ep.Epoch)
		}
	}

	// The retired-but-pinned handle still answers, at its epoch.
	warm, err := snap.Synthesize(context.Background(), moviesInput())
	if err != nil {
		t.Fatal(err)
	}
	if got, want := describe(warm.Candidates), describe(cold.Candidates); !equalStrings(got, want) {
		t.Errorf("retired pinned results changed:\n got %v\nwant %v", got, want)
	}
	if got := snap.Database().Table("movie").NumRows(); got != preRows {
		t.Errorf("pinned rows = %d, want %d", got, preRows)
	}
}

// TestAppendWarmsNextEpoch: the writer rebuilds what it invalidated — after
// an Append, the next epoch's shard is parked pre-warmed (joins carried or
// re-materialized) and the first reader adopts it instead of starting cold.
func TestAppendWarmsNextEpoch(t *testing.T) {
	e := newTestEngine(t, Config{MaxStates: 3000, MaxCandidates: 4})
	s, err := e.Session("movies")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Synthesize(context.Background(), moviesInput()); err != nil {
		t.Fatal(err)
	}
	head, err := s.shard(0)
	if err != nil {
		t.Fatal(err)
	}
	warmPaths := head.cache.Joins().Size()
	if warmPaths == 0 {
		t.Fatal("synthesis built no join paths; the warm-up premise is broken")
	}

	if _, err := e.Append("movies", "movie", []storage.ColumnData{
		{Nums: []float64{999}},
		{Texts: []string{"The Shawshank Redemption"}},
		{Nums: []float64{1994}},
	}); err != nil {
		t.Fatal(err)
	}

	// The warmed shard is parked, not in the retention ring: stats must not
	// list the new epoch yet.
	for _, ep := range e.Stats().Databases[0].Epochs {
		if ep.Epoch == head.epoch+1 {
			t.Fatalf("epoch %d entered the retention ring before any reader", ep.Epoch)
		}
	}

	next, err := s.shard(0)
	if err != nil {
		t.Fatal(err)
	}
	if next.epoch != head.epoch+1 {
		t.Fatalf("next shard epoch = %d, want %d", next.epoch, head.epoch+1)
	}
	// Every join path the old epoch had is already materialized in the new
	// shard — carried forward when its tables were untouched, rebuilt by
	// the writer when the append invalidated them — before any request ran.
	if got := next.cache.Joins().Size(); got < warmPaths {
		t.Errorf("adopted shard has %d join paths, want >= %d (writer-warmed)", got, warmPaths)
	}
	if reqs := next.requests.Load(); reqs != 0 {
		t.Errorf("adopted shard already served %d requests, want 0", reqs)
	}
}

// TestPinSurvivesStorageRetention proves a pinned epoch stays servable past
// storage's bounded view ring: as long as the service retains the epoch's
// shard (whose frozen database is valid forever), a by-number pin resolves
// from the shard map even after sustained ingest has retired the epoch
// number from storage, and the results stay bit-stable.
func TestPinSurvivesStorageRetention(t *testing.T) {
	e := newTestEngine(t, Config{MaxStates: 3000, MaxCandidates: 4})
	snap, err := e.Snapshot("movies")
	if err != nil {
		t.Fatal(err)
	}
	pin := snap.Epoch()
	before, err := snap.Synthesize(context.Background(), moviesInput())
	if err != nil {
		t.Fatal(err)
	}

	// Race far past the storage retention window (16 epochs).
	for i := 0; i < 24; i++ {
		if _, err := e.Append("movies", "movie", []storage.ColumnData{
			{Nums: []float64{float64(1000 + i)}},
			{Texts: []string{fmt.Sprintf("Filler %d", i)}},
			{Nums: []float64{2000}},
		}); err != nil {
			t.Fatal(err)
		}
	}

	// The raw storage view is gone...
	s, err := e.Session("movies")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Database().SnapshotAt(pin); err == nil {
		t.Fatalf("storage still retains epoch %d; test needs to race past retention", pin)
	}
	// ...but the service still resolves the pin from its shard ring.
	in := moviesInput()
	in.Epoch = pin
	after, err := s.Synthesize(context.Background(), in)
	if err != nil {
		t.Fatalf("pinned request after retention: %v", err)
	}
	if got, want := describe(after.Candidates), describe(before.Candidates); !equalStrings(got, want) {
		t.Errorf("pinned results drifted across retention:\n got %v\nwant %v", got, want)
	}
}
