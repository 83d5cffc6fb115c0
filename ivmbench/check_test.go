package main

import (
	"testing"

	ivm "repro"
	"repro/internal/mring"
)

// smallRun applies a few transactions of a shrunken workload and
// returns its system, the window, and the applied transaction count.
func smallRun(t *testing.T, name string, cfg config, shrink int, keys [][]ivm.Value) (*workload, *system, *window, *runEnv) {
	t.Helper()
	base, err := workloadByName(name)
	if err != nil {
		t.Fatal(err)
	}
	w := *base
	w.spec = w.spec.scaled(1)
	for tbl := range w.spec.live {
		w.spec.live[tbl] /= shrink
	}
	w.spec.inserts /= 10
	root := t.TempDir()
	e := &runEnv{clk: newClock(), root: root, subKeys: keys}
	win := newWindow(w.spec, 9)
	s, err := e.setup(&w, cfg, win.liveRows())
	if err != nil {
		t.Fatal(err)
	}
	ls := e.loop(s, generator(&w, win), 10, 0)
	if ls.failed != 0 {
		t.Fatalf("%d of %d calls failed", ls.failed, ls.attempted)
	}
	return &w, s, win, e
}

func perturb(r *mring.Relation) {
	var key mring.Tuple
	r.Foreach(func(t mring.Tuple, _ float64) {
		if key == nil {
			key = t
		}
	})
	r.Add(key, 10*tolerance)
}

func TestOracleCheck(t *testing.T) {
	w, s, win, _ := smallRun(t, "q1q6-durable", config{subs: true}, 20, nil)
	defer s.release()
	snap, err := s.snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if err := checkOracle(w, snap, win.liveRows()); err != nil {
		t.Fatalf("unperturbed result rejected: %v", err)
	}
	if err := checkFeeds(s, snap, 10); err != nil {
		t.Fatalf("unperturbed feed rejected: %v", err)
	}
	perturb(snap["Q1"])
	if err := checkOracle(w, snap, win.liveRows()); err == nil {
		t.Fatal("perturbed result accepted")
	}
	if err := checkFeeds(s, snap, 10); err == nil {
		t.Fatal("feed replay accepted against a perturbed result")
	}
}

func TestFeedCheckKeyed(t *testing.T) {
	// Watch every order key the run can produce.
	var keys [][]ivm.Value
	for k := int64(1); k <= 1000; k++ {
		keys = append(keys, []ivm.Value{ivm.Int(k)})
	}
	_, s, _, _ := smallRun(t, "q3-dist", config{workers: 2, subs: true}, 5, keys)
	defer s.release()
	var groups int
	for _, sub := range s.subs {
		groups += sub.replay.Len()
	}
	if groups == 0 {
		t.Fatal("no keyed subscriber received a group")
	}
	snap, err := s.snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if err := checkFeeds(s, snap, 10); err != nil {
		t.Fatalf("unperturbed feed rejected: %v", err)
	}
	s.subs[0].replay.Add(mring.Tuple{mring.Int(-1), mring.Int(0), mring.Int(0)}, 1)
	if err := checkFeeds(s, snap, 10); err == nil {
		t.Fatal("perturbed feed replay accepted")
	}
}

func TestReopenCheck(t *testing.T) {
	w, s, _, e := smallRun(t, "q1q6-durable", config{subs: true, wal: walFsync}, 20, nil)
	snap, err := s.snapshot()
	if err != nil {
		t.Fatal(err)
	}
	st, err := s.stats()
	if err != nil {
		t.Fatal(err)
	}
	seq := st.Durability.Applied
	if seq != 11 {
		t.Fatalf("feed Seq %d after Warm and 10 transactions, want 11", seq)
	}
	// s is abandoned without Close.
	re, _, err := checkReopen(w, s.dir, snap, seq, e)
	if err != nil {
		t.Fatalf("reopen rejected: %v", err)
	}
	if err := re.close(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := checkReopen(w, s.dir, snap, seq+1, e); err == nil {
		t.Fatal("reopen accepted a wrong feed Seq")
	}
	perturb(snap["Q6"])
	if _, _, err := checkReopen(w, s.dir, snap, seq, e); err == nil {
		t.Fatal("reopen accepted a perturbed result")
	}
}
