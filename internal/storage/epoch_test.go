package storage

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"github.com/duoquest/duoquest/internal/sqlir"
)

// epochTable builds a small nullable schema for snapshot tests: a numeric
// and a text column, both taking NULLs, so appends exercise the null-bitmap
// copy-on-write in both representations.
func epochDB() (*Database, *Table) {
	tb := NewTable("ev", "id",
		Column{"id", sqlir.TypeNumber},
		Column{"name", sqlir.TypeText},
	)
	return NewDatabase("epochs", NewSchema(tb)), tb
}

// batch returns one deterministic bulk payload of n rows starting at row
// offset base; every third row is NULL in both columns.
func epochBatch(base, n int) []ColumnData {
	nums := make([]float64, n)
	texts := make([]string, n)
	nulls := make([]bool, n)
	for i := 0; i < n; i++ {
		ri := base + i
		nums[i] = float64(ri)
		texts[i] = fmt.Sprintf("s%d", ri%7)
		nulls[i] = ri%3 == 2
		if nulls[i] {
			nums[i], texts[i] = 0, ""
		}
	}
	return []ColumnData{
		{Nums: nums, Nulls: nulls},
		{Texts: texts, Nulls: nulls},
	}
}

// checkRows verifies the table holds exactly rows [0, n) of the epochBatch
// pattern — the oracle both for pinned snapshots and for the head.
func checkRows(t *testing.T, tb *Table, n int) {
	t.Helper()
	if got := tb.NumRows(); got != n {
		t.Fatalf("table %s rows = %d, want %d", tb.Name, got, n)
	}
	id, name := tb.Vector("id"), tb.Vector("name")
	for ri := 0; ri < n; ri++ {
		if ri%3 == 2 {
			if !id.IsNull(ri) || !name.IsNull(ri) {
				t.Fatalf("row %d should be NULL", ri)
			}
			continue
		}
		if id.IsNull(ri) || name.IsNull(ri) {
			t.Fatalf("row %d should not be NULL", ri)
		}
		if id.Num(ri) != float64(ri) {
			t.Fatalf("row %d id = %g, want %d", ri, id.Num(ri), ri)
		}
		if got, want := name.Dict().String(name.Code(ri)), fmt.Sprintf("s%d", ri%7); got != want {
			t.Fatalf("row %d name = %q, want %q", ri, got, want)
		}
	}
}

// TestSnapshotNullBoundaryCOW publishes a snapshot mid null-bitmap word and
// appends NULL-bearing rows into the same word: the snapshot must keep its
// pre-append bits (copy-on-write), the head must see the new ones.
func TestSnapshotNullBoundaryCOW(t *testing.T) {
	db, _ := epochDB()
	if _, err := db.Append("ev", epochBatch(0, 5)); err != nil {
		t.Fatal(err)
	}
	snap := db.Snapshot()
	checkRows(t, snap.Table("ev"), 5)
	// Rows 5..69 extend into the snapshot's partially filled word 0 and past
	// it, with NULLs on both sides of the 64-row boundary.
	if _, err := db.Append("ev", epochBatch(5, 65)); err != nil {
		t.Fatal(err)
	}
	checkRows(t, snap.Table("ev"), 5)
	checkRows(t, db.Snapshot().Table("ev"), 70)
	if got := snap.Table("ev").Vector("id").NullCount(); got != 1 {
		t.Errorf("snapshot null count = %d, want 1", got)
	}
}

// TestSnapshotPerRowInsert covers the per-row Insert path after a
// publication (the service's build-phase API): the pinned snapshot stays
// intact while the head sees each row.
func TestSnapshotPerRowInsert(t *testing.T) {
	db, tb := epochDB()
	tb.MustInsert(num(0), text("s0"))
	snap := db.Snapshot()
	for ri := 1; ri < 8; ri++ {
		if ri%3 == 2 {
			tb.MustInsert(sqlir.Null(), sqlir.Null())
		} else {
			tb.MustInsert(num(float64(ri)), text(fmt.Sprintf("s%d", ri%7)))
		}
	}
	checkRows(t, snap.Table("ev"), 1)
	checkRows(t, db.Snapshot().Table("ev"), 8)
}

// TestEpochRetention: only the last epochRetention epochs stay addressable
// by number; older pins fail loudly instead of silently serving new data.
func TestEpochRetention(t *testing.T) {
	db, _ := epochDB()
	first, err := db.Append("ev", epochBatch(0, 1))
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < epochRetention+4; i++ {
		if _, err := db.Append("ev", epochBatch(i, 1)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := db.SnapshotAt(first); err == nil {
		t.Errorf("epoch %d should have been retired (head %d)", first, db.Epoch())
	}
	head, err := db.SnapshotAt(db.Epoch())
	if err != nil {
		t.Fatal(err)
	}
	checkRows(t, head.Table("ev"), epochRetention+4)
}

// TestConcurrentAppendAndSnapshots is the storage-level race test: one
// writer publishing epochs through Database.Append while readers pin
// snapshots and scan them. Run with -race this proves the clamped views,
// the frozen dictionaries, and the null-bitmap COW keep published epochs
// immutable under live ingest.
func TestConcurrentAppendAndSnapshots(t *testing.T) {
	db, _ := epochDB()
	if _, err := db.Append("ev", epochBatch(0, 5)); err != nil {
		t.Fatal(err)
	}
	pinned := db.Snapshot()

	const batches = 40
	const rowsPer = 9
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		base := 5
		for i := 0; i < batches; i++ {
			if _, err := db.Append("ev", epochBatch(base, rowsPer)); err != nil {
				t.Error(err)
				return
			}
			base += rowsPer
		}
	}()
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				checkRows(t, pinned.Table("ev"), 5)
				snap := db.Snapshot()
				n := snap.Table("ev").NumRows()
				if n < 5 || (n-5)%rowsPer != 0 {
					t.Errorf("snapshot rows = %d, not a batch boundary", n)
					return
				}
				checkRows(t, snap.Table("ev"), n)
				if _, err := snap.Table("ev").CodeIndex("name"); err != nil {
					t.Error(err)
					return
				}
				if _, err := snap.Stats(sqlir.ColumnRef{Table: "ev", Column: "id"}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	checkRows(t, db.Snapshot().Table("ev"), 5+batches*rowsPer)
}

// adoptDB builds a table with one column per CodeIndex layout: a dense
// integer id, a sparse (non-integer) numeric score and a text name.
func adoptDB() *Database {
	tb := NewTable("ev", "id",
		Column{"id", sqlir.TypeNumber},
		Column{"score", sqlir.TypeNumber},
		Column{"name", sqlir.TypeText},
	)
	return NewDatabase("adopt", NewSchema(tb))
}

// adoptBatch returns rows with the given ids; scores repeat every 5 ids
// below 100 and take partly new values from 100 on, names are drawn from
// the given alphabet, and every 7th id is NULL in the score and name
// columns.
func adoptBatch(ids []float64, names []string) []ColumnData {
	n := len(ids)
	scores := make([]float64, n)
	texts := make([]string, n)
	nulls := make([]bool, n)
	for i, id := range ids {
		nulls[i] = int(id)%7 == 3
		if !nulls[i] {
			scores[i] = float64(int(id)%5) * 1000.25
			if id >= 100 {
				scores[i] = float64(int(id)%3)*1000.25 + float64(int(id)%2)*0.125
			}
			texts[i] = names[i%len(names)]
		}
	}
	return []ColumnData{{Nums: ids}, {Nums: scores, Nulls: nulls}, {Texts: texts, Nulls: nulls}}
}

func idRange(lo, hi int) []float64 {
	out := make([]float64, 0, hi-lo)
	for i := lo; i < hi; i++ {
		out = append(out, float64(i))
	}
	return out
}

// checkAdoptedIndex compares an adopted index against a from-scratch build
// over the same vector, value by value, including probes that must miss.
func checkAdoptedIndex(t *testing.T, tb *Table, col string, ix *CodeIndex) {
	t.Helper()
	fresh := &CodeIndex{vec: tb.Vector(col)}
	fresh.build()
	vals, err := tb.DistinctValues(col, 0)
	if err != nil {
		t.Fatal(err)
	}
	vals = append(vals, sqlir.NewNumber(-1e6), sqlir.NewNumber(0.5), sqlir.NewText("absent"), sqlir.Null())
	for _, v := range vals {
		got, want := ix.Postings(v), fresh.Postings(v)
		if !slices.Equal(got, want) {
			t.Fatalf("column %s value %s: adopted postings %v, fresh build %v", col, v, got, want)
		}
	}
}

// sharesPostings reports whether two posting lists share a backing array —
// the proof that an index was extended from its base, not rebuilt.
func sharesPostings(a, b []int32) bool {
	return len(a) > 0 && len(b) > 0 && &a[0] == &b[0]
}

// TestCodeIndexAdoptionExtendsBase: after Append + Snapshot, every index the
// previous epoch had built is extended with just the delta rows — dense ids
// past both ends of the old range, new sparse values, new dictionary codes —
// and answers exactly like a from-scratch build.
func TestCodeIndexAdoptionExtendsBase(t *testing.T) {
	db := adoptDB()
	if _, err := db.Append("ev", adoptBatch(idRange(0, 100), []string{"a", "b", "c"})); err != nil {
		t.Fatal(err)
	}
	cols := []string{"id", "score", "name"}
	prev := db.Snapshot().Table("ev")
	base := map[string]*CodeIndex{}
	for _, col := range cols {
		ix, err := prev.CodeIndex(col)
		if err != nil {
			t.Fatal(err)
		}
		base[col] = ix
	}
	if base["id"].dense == nil || base["score"].num == nil {
		t.Fatal("base layouts are not dense id / sparse score")
	}

	delta := append(idRange(100, 140), -3)
	if _, err := db.Append("ev", adoptBatch(delta, []string{"c", "d", "e"})); err != nil {
		t.Fatal(err)
	}
	cur := db.Snapshot().Table("ev")
	for _, col := range cols {
		ix, err := cur.CodeIndex(col)
		if err != nil {
			t.Fatal(err)
		}
		checkAdoptedIndex(t, cur, col, ix)
	}
	id, _ := cur.CodeIndex("id")
	if id.dense == nil || id.off != -3 {
		t.Errorf("dense id index did not grow in place: dense=%v off=%d", id.dense != nil, id.off)
	}
	// Values with no delta rows keep the base's posting arrays.
	score, _ := cur.CodeIndex("score")
	name, _ := cur.CodeIndex("name")
	for _, c := range []struct {
		col       string
		got, base []int32
	}{
		{"id", id.Num(5), base["id"].Num(5)},
		{"score", score.Num(4001), base["score"].Num(4001)},
		{"name", name.TextString("a"), base["name"].TextString("a")},
	} {
		if !sharesPostings(c.got, c.base) {
			t.Errorf("column %s was rebuilt, not extended from the previous epoch", c.col)
		}
	}

	// An id far past the density bound cannot extend the dense layout: the
	// index is rebuilt, and still answers like a fresh build.
	if _, err := db.Append("ev", adoptBatch([]float64{1e9}, []string{"a"})); err != nil {
		t.Fatal(err)
	}
	far := db.Snapshot().Table("ev")
	ix, err := far.CodeIndex("id")
	if err != nil {
		t.Fatal(err)
	}
	if ix.dense != nil {
		t.Error("sparse id range kept a dense layout")
	}
	checkAdoptedIndex(t, far, "id", ix)
}
