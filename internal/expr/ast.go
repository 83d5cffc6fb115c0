package expr

import (
	"fmt"
	"strings"

	"repro/internal/mring"
)

// RelKind distinguishes what a relational term references.
type RelKind uint8

// Relational term kinds.
const (
	// RBase references a stored base table.
	RBase RelKind = iota
	// RDelta references a batch of updates to a base table (ΔR).
	RDelta
	// RView references a materialized view produced by the compiler.
	RView
)

func (k RelKind) String() string {
	switch k {
	case RBase:
		return "base"
	case RDelta:
		return "delta"
	default:
		return "view"
	}
}

// Expr is a node of the query algebra. Expressions are immutable once
// built; transformations return new trees.
type Expr interface {
	// Schema returns the output columns of the expression: the columns of
	// the tuples it produces. Terms whose variables must all be bound at
	// evaluation time (values, comparisons) have an empty schema.
	Schema() mring.Schema
	// Clone deep-copies the tree.
	Clone() Expr
	fmt.Stringer
}

// Rel references a relation (base table, delta batch, or materialized view)
// by name, binding its columns to the listed variable names.
type Rel struct {
	Kind RelKind
	Name string
	Cols mring.Schema
	// LowCard hints that the relation has low cardinality, making it a
	// candidate domain expression in domain extraction (Fig. 1). Delta
	// relations are implicitly low-cardinality.
	LowCard bool
}

// Schema implements Expr.
func (r *Rel) Schema() mring.Schema { return r.Cols }

// Clone implements Expr.
func (r *Rel) Clone() Expr {
	c := *r
	c.Cols = r.Cols.Clone()
	return &c
}

func (r *Rel) String() string {
	prefix := ""
	if r.Kind == RDelta {
		prefix = "Δ"
	}
	return fmt.Sprintf("%s%s(%s)", prefix, r.Name, joinStrings(r.Cols))
}

// Plus is the n-ary bag union Q1 + Q2 + ... All terms must have the same
// schema (their tuples merge with multiplicities summed).
type Plus struct{ Terms []Expr }

// Schema implements Expr. The schema of a union is the schema of its first
// non-empty-schema term (all relational terms agree by construction).
func (p *Plus) Schema() mring.Schema {
	for _, t := range p.Terms {
		if s := t.Schema(); len(s) > 0 {
			return s
		}
	}
	return nil
}

// Clone implements Expr.
func (p *Plus) Clone() Expr {
	ts := make([]Expr, len(p.Terms))
	for i, t := range p.Terms {
		ts[i] = t.Clone()
	}
	return &Plus{Terms: ts}
}

func (p *Plus) String() string {
	parts := make([]string, len(p.Terms))
	for i, t := range p.Terms {
		parts[i] = t.String()
	}
	return "(" + strings.Join(parts, " + ") + ")"
}

// Mul is the n-ary natural join Q1 ⋈ Q2 ⋈ ... Information about bound
// variables flows left to right (Sec. 3.2.1): a factor may use variables
// bound by factors to its left.
type Mul struct{ Factors []Expr }

// Schema implements Expr: the union of factor schemas, left to right.
func (m *Mul) Schema() mring.Schema {
	var s mring.Schema
	for _, f := range m.Factors {
		s = s.Union(f.Schema())
	}
	return s
}

// Clone implements Expr.
func (m *Mul) Clone() Expr {
	fs := make([]Expr, len(m.Factors))
	for i, f := range m.Factors {
		fs[i] = f.Clone()
	}
	return &Mul{Factors: fs}
}

func (m *Mul) String() string {
	parts := make([]string, len(m.Factors))
	for i, f := range m.Factors {
		parts[i] = f.String()
	}
	return "(" + strings.Join(parts, " * ") + ")"
}

// Agg is Sum_[GroupBy](Body): multiplicity-preserving projection onto the
// group-by columns, summing multiplicities per group.
type Agg struct {
	GroupBy mring.Schema
	Body    Expr
}

// Schema implements Expr.
func (a *Agg) Schema() mring.Schema { return a.GroupBy }

// Clone implements Expr.
func (a *Agg) Clone() Expr {
	return &Agg{GroupBy: a.GroupBy.Clone(), Body: a.Body.Clone()}
}

func (a *Agg) String() string {
	return fmt.Sprintf("Sum_[%s](%s)", joinStrings(a.GroupBy), a.Body)
}

// Const is a singleton relation mapping the empty tuple to multiplicity V.
type Const struct{ V float64 }

// Schema implements Expr.
func (c *Const) Schema() mring.Schema { return nil }

// Clone implements Expr.
func (c *Const) Clone() Expr { return &Const{V: c.V} }

func (c *Const) String() string { return fmt.Sprintf("%g", c.V) }

// Val is an interpreted relation: the empty tuple with multiplicity given
// by evaluating E under the current bindings. All variables of E must be
// bound at evaluation time.
type Val struct{ E VExpr }

// Schema implements Expr.
func (v *Val) Schema() mring.Schema { return nil }

// Clone implements Expr.
func (v *Val) Clone() Expr { return &Val{E: v.E} }

func (v *Val) String() string { return fmt.Sprintf("[%s]", v.E) }

// Cmp is an interpreted relation whose empty tuple has multiplicity 1 when
// the predicate holds and 0 otherwise. Joining with a comparison filters.
type Cmp struct {
	Op   CmpOp
	L, R VExpr
}

// Schema implements Expr.
func (c *Cmp) Schema() mring.Schema { return nil }

// Clone implements Expr.
func (c *Cmp) Clone() Expr { return &Cmp{Op: c.Op, L: c.L, R: c.R} }

func (c *Cmp) String() string { return fmt.Sprintf("(%s %s %s)", c.L, c.Op, c.R) }

// Assign is variable assignment (lifting). Exactly one of ValE and Q is
// set:
//
//   - var := value: a singleton relation binding Var to the value of ValE
//     with multiplicity 1.
//   - var := Q: a relation containing the tuples of Q with non-zero
//     multiplicity, extended by column Var holding that multiplicity; each
//     output tuple has multiplicity 1. Q may be correlated with the outside
//     (its free variables may be bound by the evaluation context). This is
//     how nested aggregates are expressed (Example 3.1).
type Assign struct {
	Var  string
	ValE VExpr // var := value form (nil when Q is set)
	Q    Expr  // var := Q form (nil when ValE is set)
}

// Schema implements Expr.
func (a *Assign) Schema() mring.Schema {
	if a.Q != nil {
		return a.Q.Schema().Union(mring.Schema{a.Var})
	}
	return mring.Schema{a.Var}
}

// Clone implements Expr.
func (a *Assign) Clone() Expr {
	c := &Assign{Var: a.Var, ValE: a.ValE}
	if a.Q != nil {
		c.Q = a.Q.Clone()
	}
	return c
}

func (a *Assign) String() string {
	if a.Q != nil {
		return fmt.Sprintf("(%s := %s)", a.Var, a.Q)
	}
	return fmt.Sprintf("(%s := %s)", a.Var, a.ValE)
}

// Exists changes every non-zero multiplicity of Body to 1. The paper
// defines it as Sum_[sch(Q)]((X:=Q) ⋈ (X != 0)); we keep it first-class
// because domain extraction and duplicate elimination are phrased with it.
type Exists struct{ Body Expr }

// Schema implements Expr.
func (e *Exists) Schema() mring.Schema { return e.Body.Schema() }

// Clone implements Expr.
func (e *Exists) Clone() Expr { return &Exists{Body: e.Body.Clone()} }

func (e *Exists) String() string { return fmt.Sprintf("Exists(%s)", e.Body) }

// Convenience constructors.

// Base references base table name with columns cols.
func Base(name string, cols ...string) *Rel {
	return &Rel{Kind: RBase, Name: name, Cols: cols}
}

// Delta references the update batch of base table name.
func Delta(name string, cols ...string) *Rel {
	return &Rel{Kind: RDelta, Name: name, Cols: cols}
}

// View references materialized view name.
func View(name string, cols ...string) *Rel {
	return &Rel{Kind: RView, Name: name, Cols: cols}
}

// Add builds the bag union of terms, flattening nested unions.
func Add(terms ...Expr) Expr {
	var flat []Expr
	for _, t := range terms {
		if p, ok := t.(*Plus); ok {
			flat = append(flat, p.Terms...)
		} else if t != nil {
			flat = append(flat, t)
		}
	}
	switch len(flat) {
	case 0:
		return &Const{V: 0}
	case 1:
		return flat[0]
	}
	return &Plus{Terms: flat}
}

// Join builds the natural join of factors, flattening nested joins and
// dropping multiplicative identities.
func Join(factors ...Expr) Expr {
	var flat []Expr
	for _, f := range factors {
		switch x := f.(type) {
		case nil:
		case *Mul:
			flat = append(flat, x.Factors...)
		case *Const:
			if x.V == 1 {
				continue // identity
			}
			flat = append(flat, x)
		default:
			flat = append(flat, f)
		}
	}
	switch len(flat) {
	case 0:
		return &Const{V: 1}
	case 1:
		return flat[0]
	}
	return &Mul{Factors: flat}
}

// Sum builds Sum_[groupBy](body).
func Sum(groupBy []string, body Expr) Expr {
	return &Agg{GroupBy: mring.Schema(groupBy).Clone(), Body: body}
}

// Neg negates an expression: syntactic sugar for (-1) ⋈ Q.
func Neg(q Expr) Expr { return Join(&Const{V: -1}, q) }

// CmpE builds a comparison term.
func CmpE(op CmpOp, l, r VExpr) Expr { return &Cmp{Op: op, L: l, R: r} }

// Eq builds an equality comparison between two variables/values.
func Eq(l, r VExpr) Expr { return CmpE(CEq, l, r) }

// LiftQ builds var := Q.
func LiftQ(v string, q Expr) Expr { return &Assign{Var: v, Q: q} }

// LiftV builds var := value.
func LiftV(v string, e VExpr) Expr { return &Assign{Var: v, ValE: e} }

// EqualityBinder turns a var = var comparison with exactly one side in
// bound into the assignment that binds the other side to it
// (unbound := bound), which evaluates as the same equality but binds
// instead of filtering. It returns nil when p is not such a comparison.
func EqualityBinder(p Expr, bound mring.Schema) Expr {
	c, ok := p.(*Cmp)
	if !ok || c.Op != CEq {
		return nil
	}
	l, lok := c.L.(VarRef)
	r, rok := c.R.(VarRef)
	if !lok || !rok {
		return nil
	}
	lb, rb := bound.Contains(l.Name), bound.Contains(r.Name)
	switch {
	case lb && !rb:
		return LiftV(r.Name, l)
	case rb && !lb:
		return LiftV(l.Name, r)
	default:
		return nil
	}
}

// ExistsE wraps Body in an Exists node.
func ExistsE(body Expr) Expr { return &Exists{Body: body} }

// ValE builds an interpreted value term.
func ValE(e VExpr) Expr { return &Val{E: e} }
