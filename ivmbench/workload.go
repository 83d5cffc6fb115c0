package main

import (
	"fmt"

	ivm "repro"
	"repro/internal/mring"
	"repro/internal/tpch"
)

// workload is one seeded, closed-loop benchmark workload.
type workload struct {
	name  string
	views []view
	spec  windowSpec
	cfg   config
	// subKeys picks the OnKey prefixes of the workload's subscribers
	// (one per key and view) from the seed; nil means one plain
	// subscriber per view.
	subKeys func(seed int64) [][]ivm.Value
	// ladder lists the rungs of the traced run's layer ladder, above
	// the compile.Executor rung every workload starts with.
	ladder []config
	// reads picks the groups a read round looks up after a transaction.
	reads func(w *window, g genTx) []readKey
	// tracedTxs is the fixed transaction count of every traced pass.
	tracedTxs int
}

// readKey is one point read: a group of one view.
type readKey struct {
	view  string
	group mring.Tuple
}

// readsPerRound is the number of Get calls in one read round.
const readsPerRound = 8

func (w *workload) bases() map[string]mring.Schema {
	out := map[string]mring.Schema{}
	for _, v := range w.views {
		for t, s := range v.query.BaseSchemas() {
			out[t] = s
		}
	}
	return out
}

func query(name string) tpch.Query {
	q, err := tpch.QueryByName(name)
	if err != nil {
		panic(err) // the suite ships every query the workloads name
	}
	return q
}

// q3Spec is the Q3 window: ≈6k live rows in TPC-H proportions, 1,000
// changes per transaction (500 inserts, each evicting the oldest row).
var q3Spec = windowSpec{
	tables:  []string{tpch.Customer, tpch.Orders, tpch.Lineitem},
	live:    map[string]int{tpch.Customer: 120, tpch.Orders: 1200, tpch.Lineitem: 4800},
	inserts: 500,
}

// q3Reads reads the Q3 groups (o_orderkey, o_orderdate, o_shippriority)
// of the orders the transaction's new lineitems reference.
func q3Reads(w *window, g genTx) []readKey {
	var keys []readKey
	for _, c := range g.changes {
		if c.table != tpch.Lineitem || c.mult < 0 {
			continue
		}
		o, ok := w.byKey(tpch.Orders, c.row[0].I)
		if !ok {
			continue
		}
		keys = append(keys, readKey{"Q3", mring.Tuple{o[0], o[2], o[4]}})
		if len(keys) == readsPerRound {
			break
		}
	}
	return keys
}

// q3SubKeys picks the order keys the Q3 subscribers watch: the first
// order that qualifies for Q3 (a BUILDING customer, ordered before
// DateMid) among the newest of the initial window and after 100, 1,000
// and 4,000 further orders of the seed's stream, so each subscriber
// receives deltas at a different point of a run.
func q3SubKeys(seed int64) [][]ivm.Value {
	win := newWindow(q3Spec, seed)
	orders := win.wins[tpch.Orders]
	qualifies := func(k int64) bool {
		o, _ := win.byKey(tpch.Orders, k)
		c, ok := win.byKey(tpch.Customer, o[1].I)
		return ok && c[1].I == tpch.SegBuilding && o[2].I < tpch.DateMid
	}
	var keys [][]ivm.Value
	for _, at := range []int64{0, 100, 1000, 4000} {
		k := int64(q3Spec.live[tpch.Orders]) - 50 + at
		for {
			for orders.last < k {
				win.next()
			}
			if qualifies(k) {
				keys = append(keys, []ivm.Value{ivm.Int(k)})
				break
			}
			k++
		}
	}
	return keys
}

var workloads = []*workload{
	{
		name:      "q3-window",
		views:     []view{{"Q3", query("Q3")}},
		spec:      q3Spec,
		cfg:       config{},
		ladder:    []config{{}, {subs: true}},
		reads:     q3Reads,
		tracedTxs: 100,
	},
	{
		name:  "q1q6-durable",
		views: []view{{"Q1", query("Q1")}, {"Q6", query("Q6")}},
		// 50 changes per transaction: 20 inserts evicting the oldest
		// rows plus 5 in-place updates.
		spec: windowSpec{
			tables:  []string{tpch.Lineitem},
			live:    map[string]int{tpch.Lineitem: 24000},
			inserts: 20,
			updates: 5,
		},
		cfg: config{subs: true, wal: walNoFsync},
		ladder: []config{{}, {subs: true}, {subs: true, wal: walNoFsync},
			{subs: true, wal: walFsync}},
		reads:     q1q6Reads,
		tracedTxs: 2200,
	},
	{
		name:      "q3-dist",
		views:     []view{{"Q3", query("Q3")}},
		spec:      q3Spec,
		cfg:       config{workers: 2, subs: true},
		subKeys:   q3SubKeys,
		ladder:    []config{{}, {subs: true}, {workers: 2}, {workers: 2, subs: true}},
		reads:     q3Reads,
		tracedTxs: 100,
	},
}

// q1q6Reads reads the Q1 groups (l_returnflag, l_linestatus) of the
// transaction's new lineitems and the single Q6 group.
func q1q6Reads(_ *window, g genTx) []readKey {
	var keys []readKey
	for _, c := range g.changes {
		if c.mult < 0 {
			continue
		}
		keys = append(keys, readKey{"Q1", mring.Tuple{c.row[9], c.row[10]}})
		if len(keys) == readsPerRound-1 {
			break
		}
	}
	return append(keys, readKey{"Q6", mring.Tuple{}})
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}
