package compile

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strconv"

	"repro/internal/expr"
	"repro/internal/mring"
)

// Canon returns the canonical rendering of an expression: constants are
// folded (expr.Simplify), the operand order of the commutative operators
// (bag union, natural join) is normalized by a name-insensitive
// structural skeleton, and every variable is renamed to a positional
// name in first-occurrence order over the normalized tree. Two
// expressions have equal canonical forms exactly when they are the same
// plan up to variable naming, commutative operand order, and constant
// folding. Relation names (base tables, views, deltas) are preserved —
// plans over different relations are different plans.
//
// The canonical tree is never evaluated: execution runs the compiled
// program's factor order (chosen by the join-ordering pass, see
// joinorder.go), so canonicalization only keys the plan cache and the
// cross-view sub-plan dedup of the shared compiler.
func Canon(e expr.Expr) string {
	n := sortCommutative(expr.Simplify(e.Clone()))
	return renameVars(n, canonRenaming(n)).String()
}

// Fingerprint returns a 64-bit structural hash of Canon(e). Shared view
// names derive from it; the full canonical string remains the dedup key,
// so a hash collision between distinct plans is detected, never silently
// merged.
func Fingerprint(e expr.Expr) uint64 { return hash64(Canon(e)) }

func hash64(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}

// canonStmtKey identifies one trigger statement for cross-program
// statement dedup: target view, operator, and the canonical RHS. View
// references inside the RHS must already carry their shared (canonical)
// names when this is used across programs.
func canonStmtKey(s Stmt) string {
	return s.LHS + " " + s.Op.String() + " " + Canon(s.RHS)
}

// canonViewKey identifies one view definition for cross-program view
// dedup. The arity is included defensively; canonical-form equality
// already implies equal projection width.
func canonViewKey(v *ViewDef) string {
	return Canon(v.Def) + "|" + strconv.Itoa(len(v.Schema))
}

// sortCommutative normalizes the operand order of Mul and Plus nodes,
// bottom-up, by each operand's structural skeleton (its rendering with
// every variable name blanked). The sort is stable, so operands with
// identical skeletons — same shape, different variable wiring — keep
// their original relative order and two such plans conservatively stay
// distinct.
func sortCommutative(e expr.Expr) expr.Expr {
	return expr.Transform(e, func(n expr.Expr) expr.Expr {
		switch x := n.(type) {
		case *expr.Mul:
			sortBySkeleton(x.Factors)
		case *expr.Plus:
			sortBySkeleton(x.Terms)
		}
		return n
	})
}

func sortBySkeleton(ops []expr.Expr) {
	keys := make([]string, len(ops))
	for i, o := range ops {
		keys[i] = skeleton(o)
	}
	idx := make([]int, len(ops))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return keys[idx[a]] < keys[idx[b]] })
	sorted := make([]expr.Expr, len(ops))
	for i, j := range idx {
		sorted[i] = ops[j]
	}
	copy(ops, sorted)
}

// skeleton renders an expression with every variable name blanked: the
// name-insensitive shape used as the commutative sort key.
func skeleton(e expr.Expr) string {
	return renameVars(e, func(string) string { return "_" }).String()
}

// canonRenaming maps every variable to a positional canonical name
// (v0, v1, ...) in first-occurrence order of a pre-order traversal.
func canonRenaming(e expr.Expr) func(string) string {
	m := map[string]string{}
	add := func(vs []string) {
		for _, v := range vs {
			if _, ok := m[v]; !ok {
				m[v] = "v" + strconv.Itoa(len(m))
			}
		}
	}
	expr.Walk(e, func(n expr.Expr) bool {
		switch x := n.(type) {
		case *expr.Rel:
			add(x.Cols)
		case *expr.Cmp:
			add(x.L.Vars(nil))
			add(x.R.Vars(nil))
		case *expr.Val:
			add(x.E.Vars(nil))
		case *expr.Assign:
			add([]string{x.Var})
			if x.ValE != nil {
				add(x.ValE.Vars(nil))
			}
		case *expr.Agg:
			add(x.GroupBy)
		}
		return true
	})
	return func(v string) string {
		if c, ok := m[v]; ok {
			return c
		}
		return v
	}
}

// renameVars rebuilds the tree with every variable name mapped through
// f: relation column bindings, group-by columns, assignment targets, and
// the variables of value expressions and comparisons.
func renameVars(e expr.Expr, f func(string) string) expr.Expr {
	return expr.Transform(e, func(n expr.Expr) expr.Expr {
		switch x := n.(type) {
		case *expr.Rel:
			c := *x
			c.Cols = renameSchema(x.Cols, f)
			return &c
		case *expr.Agg:
			return &expr.Agg{GroupBy: renameSchema(x.GroupBy, f), Body: x.Body}
		case *expr.Assign:
			c := &expr.Assign{Var: f(x.Var), Q: x.Q}
			if x.ValE != nil {
				c.ValE = renameVExpr(x.ValE, f)
			}
			return c
		case *expr.Cmp:
			return &expr.Cmp{Op: x.Op, L: renameVExpr(x.L, f), R: renameVExpr(x.R, f)}
		case *expr.Val:
			return &expr.Val{E: renameVExpr(x.E, f)}
		}
		return n
	})
}

func renameSchema(s mring.Schema, f func(string) string) mring.Schema {
	out := make(mring.Schema, len(s))
	for i, v := range s {
		out[i] = f(v)
	}
	return out
}

func renameVExpr(v expr.VExpr, f func(string) string) expr.VExpr {
	switch x := v.(type) {
	case expr.VarRef:
		return expr.VarRef{Name: f(x.Name)}
	case expr.Arith:
		return expr.Arith{Op: x.Op, L: renameVExpr(x.L, f), R: renameVExpr(x.R, f)}
	default:
		// Literals carry no variables.
		return v
	}
}

// renameViews rewrites view references (and nothing else) through the
// ren map, returning a new tree; references absent from the map keep
// their names.
func renameViews(e expr.Expr, ren map[string]string) expr.Expr {
	return expr.Transform(e, func(n expr.Expr) expr.Expr {
		if r, ok := n.(*expr.Rel); ok && r.Kind == expr.RView {
			if to, ok := ren[r.Name]; ok && to != r.Name {
				c := *r
				c.Name = to
				c.Cols = r.Cols.Clone()
				return &c
			}
		}
		return n
	})
}

// sharedViewName derives the content-addressed name of a shared
// auxiliary view from its canonical definition key.
func sharedViewName(key string) string {
	return fmt.Sprintf("S%016x", hash64(key))
}

// sharedTopName derives the canonical top-view name of a query shape
// from the query's canonical form.
func sharedTopName(canon string) string {
	return fmt.Sprintf("Q%016x", hash64(canon))
}
