// Package guidance defines the enumeration guidance model interface that
// GPQE consumes (§3.3): one method per SyntaxSQLNet module (Table 3), each
// returning a softmax-style probability distribution over the module's
// output classes. Any model satisfying the two §3.3.5 extensibility
// requirements — incremental partial-query updates and [0,1] confidences
// obeying Property 1 — can be plugged in.
//
// The paper uses a neural SyntaxSQLNet checkpoint served from PyTorch; this
// repository substitutes a deterministic lexical model (LexicalModel) and a
// noise-parameterised oracle (OracleModel) for testing and calibration. See
// DESIGN.md §3 for why the substitution preserves GPQE's behaviour.
package guidance

import (
	"github.com/duoquest/duoquest/internal/sqlir"
	"github.com/duoquest/duoquest/internal/storage"
)

// Scored pairs an output class with its probability. Each module returns a
// slice whose probabilities sum to 1 (enforced by Normalize), which yields
// Property 1: the children of a state partition the parent's confidence.
type Scored[T any] struct {
	Class T
	Prob  float64
}

// KeywordSet is the KW module's output: which optional clauses appear.
type KeywordSet struct {
	Where   bool
	GroupBy bool
	OrderBy bool
}

// AllKeywordSets enumerates the KW module's 8 output classes.
func AllKeywordSets() []KeywordSet {
	var out []KeywordSet
	for _, w := range []bool{false, true} {
		for _, g := range []bool{false, true} {
			for _, o := range []bool{false, true} {
				out = append(out, KeywordSet{Where: w, GroupBy: g, OrderBy: o})
			}
		}
	}
	return out
}

// AggCol is an aggregate applied to a column (HAVING expressions and ORDER
// BY keys).
type AggCol struct {
	Agg sqlir.AggFunc
	Col sqlir.ColumnRef
}

// DirLimit is the DESC/ASC module's output: sort direction plus LIMIT row
// count (0 = no limit), decided together as in Table 3.
type DirLimit struct {
	Desc  bool
	Limit int
}

// Model is the guidance interface: one method per inference module. The
// Context carries the NLQ, literals, schema, and the partial query built so
// far; index arguments identify the slot being decided. Every method must
// return a distribution whose probabilities sum to 1; an empty slice means
// the module has no viable output class and the branch dies.
type Model interface {
	// Keywords predicts which optional clauses the query contains.
	Keywords(ctx *Context) []Scored[KeywordSet]
	// SelectCount predicts the number of projections.
	SelectCount(ctx *Context) []Scored[int]
	// SelectColumn predicts the idx-th projected column.
	SelectColumn(ctx *Context, idx int) []Scored[sqlir.ColumnRef]
	// SelectAgg predicts the aggregate for the idx-th projection.
	SelectAgg(ctx *Context, idx int, col sqlir.ColumnRef) []Scored[sqlir.AggFunc]
	// WhereCount predicts the number of selection predicates.
	WhereCount(ctx *Context) []Scored[int]
	// WhereConj predicts the logical connective for multi-predicate WHERE.
	WhereConj(ctx *Context) []Scored[sqlir.LogicalOp]
	// WhereColumn predicts the idx-th predicate's column.
	WhereColumn(ctx *Context, idx int) []Scored[sqlir.ColumnRef]
	// WhereOp predicts the operator for a predicate on col.
	WhereOp(ctx *Context, col sqlir.ColumnRef) []Scored[sqlir.Op]
	// WhereValue predicts the literal for a predicate (from the tagged
	// literals L).
	WhereValue(ctx *Context, col sqlir.ColumnRef, op sqlir.Op) []Scored[sqlir.Value]
	// HavingPresent predicts whether a HAVING clause exists.
	HavingPresent(ctx *Context) []Scored[bool]
	// HavingAggCol predicts the aggregate expression in HAVING.
	HavingAggCol(ctx *Context) []Scored[AggCol]
	// HavingOp predicts the HAVING comparison operator.
	HavingOp(ctx *Context) []Scored[sqlir.Op]
	// HavingValue predicts the HAVING literal.
	HavingValue(ctx *Context) []Scored[sqlir.Value]
	// OrderKey predicts the ORDER BY expression.
	OrderKey(ctx *Context) []Scored[AggCol]
	// OrderDir predicts sort direction and LIMIT together.
	OrderDir(ctx *Context) []Scored[DirLimit]
}

// Context is the input every module receives: the NLQ (tokenised), the
// tagged literal values, the database schema, and the partial query
// synthesised so far (§3.3.1). When a Database is attached, the context also
// knows which columns contain each tagged literal — the metadata the
// autocomplete tagging interface provides in the paper's front end (§4).
type Context struct {
	NLQ      string
	Tokens   []string
	Literals []sqlir.Value
	Schema   *storage.Schema
	DB       *storage.Database // optional; enables literal-column grounding
	Query    *sqlir.Query

	litCols map[sqlir.ColumnRef]int // columns containing >=1 literal
}

// NewContext tokenises the NLQ and builds a module context.
func NewContext(nlq string, literals []sqlir.Value, schema *storage.Schema, q *sqlir.Query) *Context {
	return &Context{
		NLQ:      nlq,
		Tokens:   Tokenize(nlq),
		Literals: literals,
		Schema:   schema,
		Query:    q,
	}
}

// NewContextDB builds a context with literal-column grounding enabled.
func NewContextDB(nlq string, literals []sqlir.Value, db *storage.Database, q *sqlir.Query) *Context {
	c := NewContext(nlq, literals, db.Schema, q)
	c.DB = db
	return c
}

// WithQuery returns a shallow copy bound to a different partial query.
func (c *Context) WithQuery(q *sqlir.Query) *Context {
	cp := *c
	cp.Query = q
	return &cp
}

// LiteralColumns returns, lazily, how many tagged literals each column
// contains: text literals by dictionary lookup, numeric literals by min/max
// range.
// Nil when no Database is attached.
func (c *Context) LiteralColumns() map[sqlir.ColumnRef]int {
	if c.DB == nil || len(c.Literals) == 0 {
		return nil
	}
	if c.litCols != nil {
		return c.litCols
	}
	c.litCols = map[sqlir.ColumnRef]int{}
	for _, t := range c.Schema.Tables {
		for _, col := range t.Columns {
			ref := sqlir.ColumnRef{Table: t.Name, Column: col.Name}
			for _, lit := range c.Literals {
				if lit.Type() != col.Type {
					continue
				}
				if col.Type == sqlir.TypeText {
					if d := t.Vector(col.Name).Dict(); d != nil {
						if _, ok := d.Lookup(lit.Text); ok {
							c.litCols[ref]++
						}
					}
				} else {
					st, err := c.DB.Stats(ref)
					if err == nil && st.NonNull > 0 &&
						lit.Num >= st.Min.Num && lit.Num <= st.Max.Num {
						c.litCols[ref]++
					}
				}
			}
		}
	}
	return c.litCols
}

// Normalize scales probabilities to sum to 1, dropping non-positive entries.
// Returns nil if nothing remains.
func Normalize[T any](in []Scored[T]) []Scored[T] {
	total := 0.0
	for _, s := range in {
		if s.Prob > 0 {
			total += s.Prob
		}
	}
	if total <= 0 {
		return nil
	}
	out := make([]Scored[T], 0, len(in))
	for _, s := range in {
		if s.Prob <= 0 {
			continue
		}
		out = append(out, Scored[T]{Class: s.Class, Prob: s.Prob / total})
	}
	return out
}

// NumericLiterals filters the context's literals to numbers.
func (c *Context) NumericLiterals() []sqlir.Value {
	var out []sqlir.Value
	for _, l := range c.Literals {
		if l.Kind == sqlir.KindNumber {
			out = append(out, l)
		}
	}
	return out
}

// TextLiterals filters the context's literals to text.
func (c *Context) TextLiterals() []sqlir.Value {
	var out []sqlir.Value
	for _, l := range c.Literals {
		if l.Kind == sqlir.KindText {
			out = append(out, l)
		}
	}
	return out
}
