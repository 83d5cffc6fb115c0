package compile

import (
	"repro/internal/expr"
	"repro/internal/mring"
)

// Join ordering. Evaluation binds variables left to right through a
// product (Sec. 3.2.1), so factor order decides every access path: a view
// placed before the delta is scanned whole on every batch, and an equality
// (x = y) filters after the fact instead of letting a later relation probe
// on x. This pass reorders products statistics-free and greedily, the
// way a Datalog planner orders a rule body without cardinalities:
//
//  1. the delta (or the transient pre-aggregated delta view) goes first;
//  2. each interpreted factor — comparison, value term, constant,
//     var := value — goes right after its variables are bound;
//  3. a var = var equality with exactly one side bound becomes the binder
//     unbound := bound (expr.EqualityBinder);
//  4. otherwise the relation with the most bound columns goes next: fully
//     bound (get) first, then partially bound (slice), then the rest
//     (scan); ties go to delta-like relations, then to the original order.
//
// Only flat products are reordered: two or more relations plus
// interpreted factors. Products with compound factors (nested lifts,
// Exists, unions) keep their order, though products nested inside them
// are reordered in turn. The pass is deterministic — it iterates slices
// only — because durable recovery recompiles a query and restores its
// views by name.

// orderProgramJoins reorders the products of every trigger statement and
// every persistent view definition (the warm-start path).
func orderProgramJoins(p *Program, rels []string) {
	o := joinOrderer{deltaLike: make(map[string]bool)}
	for _, v := range p.Views {
		if v.Transient {
			o.deltaLike[v.Name] = true
		}
	}
	for _, rel := range rels {
		for i, s := range p.Triggers[rel].Stmts {
			p.Triggers[rel].Stmts[i].RHS = o.order(s.RHS, true)
		}
	}
	for _, v := range p.Views {
		if !v.Transient && !expr.HasDelta(v.Def) {
			v.Def = o.order(v.Def, true)
		}
	}
}

type joinOrderer struct {
	deltaLike map[string]bool // transient view names
}

func (o joinOrderer) isDelta(r *expr.Rel) bool {
	return r.Kind == expr.RDelta || (r.Kind == expr.RView && o.deltaLike[r.Name])
}

// order rewrites e bottom-up. keepSchema marks positions whose column
// order is positional (a statement's non-aggregate RHS merges into its
// target by position); a reordered product there must keep its schema.
func (o joinOrderer) order(e expr.Expr, keepSchema bool) expr.Expr {
	switch x := e.(type) {
	case *expr.Mul:
		fs := make([]expr.Expr, len(x.Factors))
		for i, f := range x.Factors {
			fs[i] = o.order(f, false)
		}
		m := &expr.Mul{Factors: fs}
		if !flatProduct(fs) {
			return m
		}
		g := o.greedy(fs, expr.FreeVars(m))
		if keepSchema && !g.Schema().Equal(m.Schema()) {
			return m
		}
		return g
	case *expr.Plus:
		ts := make([]expr.Expr, len(x.Terms))
		for i, t := range x.Terms {
			ts[i] = o.order(t, keepSchema)
		}
		return &expr.Plus{Terms: ts}
	case *expr.Agg:
		return &expr.Agg{GroupBy: x.GroupBy, Body: o.order(x.Body, false)}
	case *expr.Assign:
		if x.Q == nil {
			return x
		}
		return &expr.Assign{Var: x.Var, Q: o.order(x.Q, false)}
	case *expr.Exists:
		return &expr.Exists{Body: o.order(x.Body, false)}
	default:
		return e
	}
}

// flatProduct reports whether fs holds two or more relations and
// otherwise only interpreted factors.
func flatProduct(fs []expr.Expr) bool {
	rels := 0
	for _, f := range fs {
		switch x := f.(type) {
		case *expr.Rel:
			rels++
		case *expr.Cmp, *expr.Val, *expr.Const:
		case *expr.Assign:
			if x.Q != nil {
				return false
			}
		default:
			return false
		}
	}
	return rels >= 2
}

// greedy orders the factors of a flat product. bound holds the variables
// the context supplies: the product's free variables in its original
// order, which the original order already relied on being bound.
func (o joinOrderer) greedy(fs []expr.Expr, bound mring.Schema) *expr.Mul {
	rest := append([]expr.Expr(nil), fs...)
	out := make([]expr.Expr, 0, len(fs))
	take := func(i int, f expr.Expr) {
		out = append(out, f)
		bound = bound.Union(f.Schema())
		rest = append(rest[:i], rest[i+1:]...)
	}
	placedRel := false
	for len(rest) > 0 {
		if i, f := nextInterpreted(rest, bound); f != nil {
			take(i, f)
			continue
		}
		i := o.nextRel(rest, bound, !placedRel)
		if i < 0 {
			// Unreachable for a well-formed product (every variable an
			// interpreted factor reads is bound by some relation or by
			// the context); keep what is left in its original order.
			out = append(out, rest...)
			break
		}
		placedRel = true
		take(i, rest[i])
	}
	return &expr.Mul{Factors: out}
}

// nextInterpreted returns the first interpreted factor whose inputs are
// all bound or, failing that, the first equality it can turn into a
// binder; f is nil when neither exists.
func nextInterpreted(rest []expr.Expr, bound mring.Schema) (int, expr.Expr) {
	for i, f := range rest {
		var in mring.Schema
		switch x := f.(type) {
		case *expr.Rel:
			continue
		case *expr.Cmp:
			in = varsOfVExpr(x.L, x.R)
		case *expr.Val:
			in = varsOfVExpr(x.E)
		case *expr.Assign:
			in = varsOfVExpr(x.ValE)
		}
		if len(in.Intersect(bound)) == len(in) {
			return i, f
		}
	}
	for i, f := range rest {
		if b := expr.EqualityBinder(f, bound); b != nil {
			return i, b
		}
	}
	return -1, nil
}

// nextRel picks the index of the next relation to place, or -1 when none
// is left. first selects the leading relation, which is the first
// delta-like one when there is any.
func (o joinOrderer) nextRel(rest []expr.Expr, bound mring.Schema, first bool) int {
	best, bestScore := -1, -1
	for i, f := range rest {
		r, ok := f.(*expr.Rel)
		if !ok {
			continue
		}
		delta := o.isDelta(r)
		if first && delta {
			return i
		}
		// Access class (get 2, slice 1, scan 0), then bound columns, then
		// delta-likeness; strict > keeps the original order on ties.
		nb := len(r.Cols.Intersect(bound))
		score := nb << 1
		switch {
		case nb == len(r.Cols):
			score |= 2 << 16
		case nb > 0:
			score |= 1 << 16
		}
		if delta {
			score |= 1
		}
		if score > bestScore {
			best, bestScore = i, score
		}
	}
	return best
}
