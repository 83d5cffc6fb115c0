package compile

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/eval"
	"repro/internal/expr"
	"repro/internal/mring"
	"repro/internal/tpcds"
	"repro/internal/tpch"
)

// TestOrderJoinsGreedy pins the ordering rules on small products: the
// delta leads, value terms follow their inputs, an equality with one
// side bound becomes a binder, and positional or compound products keep
// their order.
func TestOrderJoinsGreedy(t *testing.T) {
	o := joinOrderer{deltaLike: map[string]bool{"P_DELTA": true}}
	cases := []struct {
		name string
		in   expr.Expr
		want string
	}{
		{
			name: "delta first, binder, then slice",
			in: expr.Sum([]string{"x"}, expr.Join(
				expr.View("M", "y", "x"), expr.Delta("D", "z", "w"),
				expr.Eq(expr.V("y"), expr.V("z")), expr.ValE(expr.V("w")))),
			want: "Sum_[x]((ΔD(z,w) * [w] * (y := z) * M(y,x)))",
		},
		{
			name: "pre-aggregated delta view counts as the delta",
			in: expr.Sum([]string{"a"}, expr.Join(
				expr.View("N", "a"), expr.View("M", "a", "b"), expr.View("P_DELTA", "b"))),
			want: "Sum_[a]((P_DELTA(b) * M(a,b) * N(a)))",
		},
		{
			name: "no delta: get before slice before scan, ties keep order",
			in: expr.Sum([]string{"c"}, expr.Join(
				expr.View("A", "a"), expr.View("B", "a", "b"), expr.View("C", "b", "c"),
				expr.View("E", "a", "b"))),
			want: "Sum_[c]((A(a) * B(a,b) * E(a,b) * C(b,c)))",
		},
		{
			name: "positional root keeps its schema",
			in: expr.Join(expr.View("M", "y", "x"), expr.Delta("D", "z", "w"),
				expr.Eq(expr.V("y"), expr.V("z"))),
			want: "(M(y,x) * ΔD(z,w) * (y = z))",
		},
		{
			name: "compound factor keeps the outer order, inner product reorders",
			in: expr.Sum([]string{"x"}, expr.Join(
				expr.View("M", "x"), expr.Delta("D", "x"),
				expr.LiftQ("n", expr.Sum(nil, expr.Join(
					expr.View("S", "s", "k"), expr.View("T", "k"),
					expr.Eq(expr.V("s"), expr.V("x"))))))),
			want: "Sum_[x]((M(x) * ΔD(x) * (n := Sum_[](((s := x) * S(s,k) * T(k))))))",
		},
	}
	for _, c := range cases {
		if got := o.order(c.in, true).String(); got != c.want {
			t.Errorf("%s:\n got %s\nwant %s", c.name, got, c.want)
		}
	}
}

// scanCounts streams query q through the executor at scale sf (seed 1,
// 500-tuple chunks) and returns the scans and the number of input tuples.
func scanCounts(t *testing.T, q tpch.Query, sf float64) (scans int64, tuples int) {
	t.Helper()
	prog, err := Compile(q.Name, q.Def, q.BaseSchemas(), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	ex := NewExecutor(prog)
	gen := tpch.NewGenerator(sf, 1)
	init := map[string]*mring.Relation{}
	for _, tbl := range q.Tables {
		if tbl == tpch.Nation || tbl == tpch.Region {
			init[tbl] = gen.Static(tbl)
		} else {
			init[tbl] = mring.NewRelation(tpch.Schemas[tbl])
		}
	}
	ex.InitFromBases(init)
	ex.Stats = eval.Stats{}
	stream := tpch.NewStream(gen, q.Tables)
	for {
		bs := stream.NextBatches(500)
		if len(bs) == 0 {
			break
		}
		for _, b := range bs {
			ex.ApplyBatch(b.Table, b.Rel)
			tuples += b.Rel.Len()
		}
	}
	return ex.Stats.Scans, tuples
}

// scansBeforeJoinOrdering holds each TPC-H query's total scans at sf 0.2
// (seed 1, 500-tuple chunks) as measured with strictly left-to-right
// products, before the ordering pass existed. Counts are exact for the
// seed.
var scansBeforeJoinOrdering = map[string]int64{
	"Q1": 1811, "Q2": 684, "Q3": 17405, "Q4": 9504, "Q5": 46008,
	"Q6": 1225, "Q7": 179098, "Q8": 25540, "Q9": 89315, "Q10": 5496,
	"Q11": 1080, "Q12": 42078, "Q13": 1320, "Q14": 1344, "Q16": 3598,
	"Q17": 7247, "Q18": 1919633, "Q19": 48812, "Q20": 1699, "Q22": 648,
}

// TestScanScalingTPCH is the state-scaling gate: a trigger's work should
// track the batch, not the state. Scans per input tuple of Q3 and Q5 may
// grow at most 1.5x when the data grows 4x, and no query may scan more
// than it did before delta-first ordering; the multi-way joins it
// reorders must scan strictly less.
func TestScanScalingTPCH(t *testing.T) {
	mustDrop := map[string]bool{"Q3": true, "Q5": true, "Q7": true, "Q8": true, "Q9": true, "Q10": true}
	for _, q := range tpch.Queries() {
		small, nSmall := scanCounts(t, q, 0.05)
		large, nLarge := scanCounts(t, q, 0.2)
		perSmall := float64(small) / float64(nSmall)
		perLarge := float64(large) / float64(nLarge)
		if q.Name == "Q3" || q.Name == "Q5" {
			if g := perLarge / perSmall; g > 1.5 {
				t.Errorf("%s: scans per tuple grow %.2fx (%.2f -> %.2f) for 4x data, want <= 1.5x",
					q.Name, g, perSmall, perLarge)
			}
		}
		before, ok := scansBeforeJoinOrdering[q.Name]
		if !ok {
			t.Fatalf("%s: no recorded scan count", q.Name)
		}
		if large > before {
			t.Errorf("%s: %d scans at sf 0.2 (%.2f per tuple), above the %d recorded before join ordering",
				q.Name, large, perLarge, before)
		}
		if mustDrop[q.Name] && large >= before {
			t.Errorf("%s: %d scans at sf 0.2, want fewer than %d", q.Name, large, before)
		}
	}
}

// TestCompileDeterministic: durable recovery recompiles a query in a new
// process and restores its views by name, so two compiles of the same
// query must render identically — view names, definitions, and trigger
// factor order included.
func TestCompileDeterministic(t *testing.T) {
	type query struct {
		name  string
		def   expr.Expr
		bases map[string]mring.Schema
	}
	var qs []query
	for _, q := range tpch.Queries() {
		qs = append(qs, query{q.Name, q.Def, q.BaseSchemas()})
	}
	for _, q := range tpcds.Queries() {
		qs = append(qs, query{q.Name, q.Def, q.BaseSchemas()})
	}
	for _, q := range qs {
		a, err := Compile(q.name, q.def, q.bases, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		b, err := Compile(q.name, q.def, q.bases, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		if a.String() != b.String() {
			t.Errorf("%s: two compiles differ:\n%s\n---\n%s", q.name, a, b)
		}
	}
}

// TestQ3TriggerAccessPaths pins Q3's plan: each trigger's join leads with
// its pre-aggregated delta and probes M1 by key instead of scanning it,
// and the warm-start definition slices orders and lineitem.
func TestQ3TriggerAccessPaths(t *testing.T) {
	q, err := tpch.QueryByName("Q3")
	if err != nil {
		t.Fatal(err)
	}
	prog, err := Compile(q.Name, q.Def, q.BaseSchemas(), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, rel := range []string{tpch.Customer, tpch.Orders, tpch.Lineitem} {
		lead := "Sum_[o_orderkey,o_orderdate,o_shippriority]((Q3_" + rel + "_DELTA("
		found := false
		for _, s := range prog.Triggers[rel].Stmts {
			if s.LHS == "Q3" {
				found = strings.HasPrefix(s.RHS.String(), lead)
			}
		}
		if !found {
			t.Errorf("%s trigger does not lead with its delta:\n%s", rel, prog.Triggers[rel])
		}
	}
	want := map[string]bool{"M1[0]": true, "M1[1]": true, "orders[1]": true, "lineitem[0]": true}
	for _, s := range prog.Indexes {
		delete(want, fmt.Sprintf("%s%v", s.Rel, s.Pos))
	}
	if len(want) > 0 {
		t.Errorf("missing index specs %v; have %v", want, prog.Indexes)
	}
}
