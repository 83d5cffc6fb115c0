package main

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/mring"
	"repro/internal/tpch"
)

func streamString(spec windowSpec, seed int64, n int) string {
	w := newWindow(spec, seed)
	var b strings.Builder
	for _, t := range spec.tables {
		for _, r := range w.liveRows()[t] {
			fmt.Fprintf(&b, "%s%v;", t, r)
		}
	}
	for i := 0; i < n; i++ {
		for _, c := range w.next().changes {
			fmt.Fprintf(&b, "%s%v%+v;", c.table, c.row, c.mult)
		}
		b.WriteString("|")
	}
	return b.String()
}

func TestStreamDeterministic(t *testing.T) {
	for _, w := range workloads {
		spec := w.spec.scaled(1)
		a, b := streamString(spec, 7, 5), streamString(spec, 7, 5)
		if a != b {
			t.Fatalf("%s: one seed gave two different streams", w.name)
		}
		if a == streamString(spec, 8, 5) {
			t.Fatalf("%s: seeds 7 and 8 gave the same stream", w.name)
		}
	}
}

// TestLiveRowsConstant replays a stream into a multiset and checks that
// every delete removes a live row, no row is ever live twice, and the
// live count never changes.
func TestLiveRowsConstant(t *testing.T) {
	for _, w := range workloads {
		win := newWindow(w.spec, 3)
		want := win.liveCount()
		live := map[string]*mring.Relation{}
		for tbl, rows := range win.liveRows() {
			live[tbl] = mring.NewRelation(tpch.Schemas[tbl])
			for _, r := range rows {
				live[tbl].Add(r, 1)
			}
		}
		for i := 0; i < 30; i++ {
			g := win.next()
			if got := len(g.changes); got != 2*(w.spec.inserts+w.spec.updates) {
				t.Fatalf("%s tx %d: %d changes, want %d", w.name, i, got, 2*(w.spec.inserts+w.spec.updates))
			}
			for _, c := range g.changes {
				r := live[c.table]
				if c.mult < 0 && r.Get(c.row) != 1 {
					t.Fatalf("%s tx %d: deletes a row that is not live: %v", w.name, i, c.row)
				}
				r.Add(c.row, c.mult)
			}
			n := 0
			for _, r := range live {
				r.Foreach(func(_ mring.Tuple, m float64) {
					if m != 1 {
						t.Fatalf("%s tx %d: row with multiplicity %v", w.name, i, m)
					}
				})
				n += r.Len()
			}
			if n != want || win.liveCount() != want {
				t.Fatalf("%s tx %d: %d live rows (window says %d), want %d", w.name, i, n, win.liveCount(), want)
			}
		}
	}
}

// TestKeysStayLive checks that every generated foreign key points at a
// parent row that was live when the transaction began or that the
// transaction inserted, so Q3's joins keep matching as the window slides.
func TestKeysStayLive(t *testing.T) {
	win := newWindow(q3Spec, 5)
	span := func(table string) (int64, int64) {
		r := win.wins[table]
		return r.last - int64(len(r.rows)) + 1, r.last
	}
	for i := 0; i < 20; i++ {
		cLo, _ := span(tpch.Customer)
		oLo, _ := span(tpch.Orders)
		g := win.next()
		_, cHi := span(tpch.Customer)
		_, oHi := span(tpch.Orders)
		for _, c := range g.changes {
			if c.mult < 0 {
				continue
			}
			switch c.table {
			case tpch.Orders:
				if k := c.row[1].I; k < cLo || k > cHi {
					t.Fatalf("order %v references customer %d outside %d..%d", c.row, k, cLo, cHi)
				}
			case tpch.Lineitem:
				if k := c.row[0].I; k < oLo || k > oHi {
					t.Fatalf("lineitem %v references order %d outside %d..%d", c.row, k, oLo, oHi)
				}
			}
		}
	}
}
