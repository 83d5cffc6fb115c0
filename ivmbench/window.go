package main

import (
	"math/rand"

	"repro/internal/mring"
	"repro/internal/tpch"
)

// windowSpec sizes a sliding window: the live row count of every table
// it covers, the inserts each transaction makes (each evicts the oldest
// live row of its table, so live counts never change), and the
// in-place updates each transaction makes on lineitem (a delete of a
// live row plus the insert of its new version).
type windowSpec struct {
	tables  []string
	live    map[string]int
	inserts int
	updates int
}

// scaled returns the spec with every live count multiplied by f and the
// per-transaction work unchanged (the state-scaling pass).
func (s windowSpec) scaled(f int) windowSpec {
	out := s
	out.live = make(map[string]int, len(s.live))
	for t, n := range s.live {
		out.live[t] = n * f
	}
	return out
}

// change is one base-tuple change: +1 inserts the row, -1 deletes it.
type change struct {
	table string
	row   mring.Tuple
	mult  float64
}

// genTx is one generated transaction, in the order its changes are
// applied; its tables fold in first-touch order.
type genTx struct {
	changes []change
}

// ring is one table's live rows in arrival order: a fixed-size circular
// buffer whose oldest row sits at head.
type ring struct {
	rows []mring.Tuple
	head int
	// last is the newest primary key (keyed tables only); the live keys
	// are exactly last-len(rows)+1 .. last.
	last int64
}

func (r *ring) at(age int) mring.Tuple { return r.rows[(r.head+age)%len(r.rows)] }

func (r *ring) set(age int, t mring.Tuple) { r.rows[(r.head+age)%len(r.rows)] = t }

// window generates a seeded stream of sliding-window transactions over
// TPC-H-shaped rows. Row contents come from tpch.Generator; the keys
// that tie the tables together (o_custkey, l_orderkey) are drawn from
// the parent table's live keys, so joins keep matching as the window
// slides. The same spec and seed always yield the same initial window
// and the same transaction stream.
type window struct {
	spec windowSpec
	gen  *tpch.Generator
	rng  *rand.Rand
	wins map[string]*ring
	// credit implements smooth weighted round-robin over tables, so each
	// transaction's inserts split in proportion to the live counts.
	credit map[string]int
	total  int
	ages   map[int]bool
}

func newWindow(spec windowSpec, seed int64) *window {
	w := &window{
		spec:   spec,
		gen:    tpch.NewGenerator(1, seed),
		rng:    rand.New(rand.NewSource(seed*7919 + 17)),
		wins:   make(map[string]*ring, len(spec.tables)),
		credit: make(map[string]int, len(spec.tables)),
		ages:   make(map[int]bool),
	}
	// Parents fill first so children reference live parent keys.
	for _, t := range spec.tables {
		n := spec.live[t]
		w.total += n
		r := &ring{rows: make([]mring.Tuple, 0, n)}
		w.wins[t] = r
		for i := 0; i < n; i++ {
			r.rows = append(r.rows, w.row(t))
		}
	}
	return w
}

// row generates the next row of a table, keyed into the live window.
func (w *window) row(table string) mring.Tuple {
	t := w.gen.Tuple(table)
	switch table {
	case tpch.Customer, tpch.Orders:
		r := w.wins[table]
		r.last++
		t[0] = mring.Int(r.last)
		if table == tpch.Orders {
			t[1] = mring.Int(w.liveKey(tpch.Customer))
		}
	case tpch.Lineitem:
		if _, ok := w.wins[tpch.Orders]; ok {
			t[0] = mring.Int(w.liveKey(tpch.Orders))
		}
	}
	return t
}

// liveKey draws a uniformly random live primary key of a keyed table.
func (w *window) liveKey(table string) int64 {
	r := w.wins[table]
	return r.last - int64(w.rng.Intn(len(r.rows)))
}

// byKey returns the live row of a keyed table with primary key k.
func (w *window) byKey(table string, k int64) (mring.Tuple, bool) {
	r := w.wins[table]
	age := int(k - (r.last - int64(len(r.rows)) + 1))
	if age < 0 || age >= len(r.rows) {
		return nil, false
	}
	return r.at(age), true
}

// liveRows returns every table's live rows, oldest first.
func (w *window) liveRows() map[string][]mring.Tuple {
	out := make(map[string][]mring.Tuple, len(w.wins))
	for t, r := range w.wins {
		rows := make([]mring.Tuple, len(r.rows))
		for i := range rows {
			rows[i] = r.at(i)
		}
		out[t] = rows
	}
	return out
}

// liveCount returns the number of live rows across all tables.
func (w *window) liveCount() int {
	n := 0
	for _, r := range w.wins {
		n += len(r.rows)
	}
	return n
}

// next generates one transaction and advances the window past it.
func (w *window) next() genTx {
	tx := genTx{changes: make([]change, 0, 2*w.spec.inserts+2*w.spec.updates)}
	fresh := make(map[string]int, len(w.spec.tables))
	for i := 0; i < w.spec.inserts; i++ {
		t := w.pick()
		r := w.wins[t]
		tx.changes = append(tx.changes, change{t, r.rows[r.head], -1})
		row := w.row(t)
		r.rows[r.head] = row
		r.head = (r.head + 1) % len(r.rows)
		tx.changes = append(tx.changes, change{t, row, +1})
		fresh[t]++
	}
	if w.spec.updates > 0 {
		// Updates touch distinct rows that predate this transaction, so
		// no change cancels another inside the batch.
		r := w.wins[tpch.Lineitem]
		old := len(r.rows) - fresh[tpch.Lineitem]
		clear(w.ages)
		for len(w.ages) < w.spec.updates {
			age := w.rng.Intn(old)
			if w.ages[age] {
				continue
			}
			w.ages[age] = true
			prev := r.at(age)
			row := w.gen.Tuple(tpch.Lineitem)
			copy(row[:3], prev[:3]) // keep l_orderkey, l_partkey, l_suppkey
			r.set(age, row)
			tx.changes = append(tx.changes, change{tpch.Lineitem, prev, -1}, change{tpch.Lineitem, row, +1})
		}
	}
	return tx
}

// pick chooses the table of the next insert by smooth weighted
// round-robin on live counts.
func (w *window) pick() string {
	best := ""
	for _, t := range w.spec.tables {
		w.credit[t] += w.spec.live[t]
		if best == "" || w.credit[t] > w.credit[best] {
			best = t
		}
	}
	w.credit[best] -= w.total
	return best
}
