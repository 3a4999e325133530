package sqlexec

import (
	"context"

	"github.com/duoquest/duoquest/internal/sqlir"
	"github.com/duoquest/duoquest/internal/storage"
)

// Hooks for the external test package (differential tests and paired
// benchmarks): direct access to the materialize-then-filter reference path,
// bypassing the streaming pipeline.

// ReferenceRelation wraps a materialized join for repeated probing — the
// pre-streaming JoinCache behavior.
type ReferenceRelation struct {
	db  *storage.Database
	rel *relation
}

// MaterializeReference materializes a join path through the reference
// executor.
func MaterializeReference(db *storage.Database, jp *sqlir.JoinPath) (*ReferenceRelation, error) {
	rel, err := join(context.Background(), db, jp, &discardCounters)
	if err != nil {
		return nil, err
	}
	return &ReferenceRelation{db: db, rel: rel}, nil
}

// ExistsOnReference scans a pre-materialized join for a witness, exactly as
// the pre-streaming executor did.
func (r *ReferenceRelation) ExistsOnReference(eq ExistsQuery) (bool, error) {
	return existsOn(context.Background(), r.rel, eq)
}

// ExistsStreaming answers through the vectorized columnar streaming
// pipeline only. handled=false means the probe did not compile and would
// fall back to the materializing path.
func ExistsStreaming(db *storage.Database, eq ExistsQuery) (ok, handled bool, err error) {
	return streamExists(context.Background(), db, eq, &discardCounters)
}

// ExistsReference answers an exists query by materializing the join and
// filtering — the reference oracle for the streaming pipeline.
func ExistsReference(db *storage.Database, eq ExistsQuery) (bool, error) {
	for _, p := range eq.Preds {
		if !p.Complete() {
			return false, errIncomplete(p)
		}
	}
	for _, p := range eq.AndPreds {
		if !p.Complete() {
			return false, errIncomplete(p)
		}
	}
	rel, err := join(context.Background(), db, eq.From, &discardCounters)
	if err != nil {
		return false, err
	}
	return existsOn(context.Background(), rel, eq)
}

// ExistsMorsel answers through the morsel-parallel columnar pipeline with an
// explicit worker count and morsel size — the hook the differential and
// property tests drive at morsel sizes down to a single row. handled=false
// means the probe did not compile (same shapes as ExistsStreaming).
func ExistsMorsel(db *storage.Database, eq ExistsQuery, workers, morselSize int) (ok, handled bool, err error) {
	ctx := WithMorselSize(WithPool(context.Background(), NewWorkerPool(workers, 0)), morselSize)
	return streamExists(ctx, db, eq, &discardCounters)
}

// ExistsMorselCtx is ExistsMorsel under a caller context (cancellation and
// poison tests derive deadlines and carry fault injectors).
func ExistsMorselCtx(ctx context.Context, db *storage.Database, eq ExistsQuery, workers, morselSize int) (ok, handled bool, err error) {
	ctx = WithMorselSize(WithPool(ctx, NewWorkerPool(workers, 0)), morselSize)
	return streamExists(ctx, db, eq, &discardCounters)
}
