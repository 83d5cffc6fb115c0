package main

import (
	"fmt"

	ivm "repro"

	"repro/internal/eval"
	"repro/internal/mring"
)

// tolerance is the absolute float tolerance of the repository's rebuild
// oracle tests (mring.Relation.EqualApprox at 1e-6).
const tolerance = 1e-6

// checkOracle compares every view's result with a rebuild oracle: the
// view's query evaluated from scratch over the live window.
func checkOracle(w *workload, snap map[string]*mring.Relation, live map[string][]mring.Tuple) error {
	env := eval.NewEnv()
	for t, r := range relations(live) {
		env.Bind(t, r)
	}
	for _, v := range w.views {
		want := eval.NewCtx(env).Materialize(v.query.Def)
		if err := sameRel(v.name+" result vs rebuild oracle", snap[v.name], want, tolerance); err != nil {
			return err
		}
	}
	return nil
}

// checkFeeds verifies that each subscriber's deltas, replayed from
// empty, reproduce its view's result (restricted to the subscriber's
// key), and that plain subscribers saw every transaction: Warm plus
// txs applied ones.
func checkFeeds(s *system, snap map[string]*mring.Relation, txs int64) error {
	for _, sub := range s.subs {
		want := mring.NewRelation(nil)
		snap[sub.view].Foreach(func(t mring.Tuple, v float64) {
			if hasPrefix(t, sub.key) {
				want.Add(t, v)
			}
		})
		what := fmt.Sprintf("%s feed replay (key %v) vs result", sub.view, sub.key)
		if err := sameRel(what, sub.replay, want, tolerance); err != nil {
			return err
		}
		if sub.key == nil && sub.lastSeq != txs+1 {
			return fmt.Errorf("%s feed: last Seq %d, want %d", sub.view, sub.lastSeq, txs+1)
		}
	}
	return nil
}

func hasPrefix(t mring.Tuple, key []mring.Value) bool {
	for i, k := range key {
		if !t[i].Equal(k) {
			return false
		}
	}
	return true
}

// sameRel reports a mismatch between got and want beyond tol.
func sameRel(what string, got, want *mring.Relation, tol float64) error {
	if got.EqualApprox(want, tol) {
		return nil
	}
	return fmt.Errorf("%s: mismatch (got %d groups, want %d)", what, got.Len(), want.Len())
}

// checkReopen reopens a durable directory abandoned without Close and
// verifies that recovery restores the same results and the same feed
// sequence number. It returns the reopened system (the caller releases
// it) and the recovery time.
func checkReopen(w *workload, dir string, snap map[string]*mring.Relation, seq int64, e *runEnv) (*system, int64, error) {
	t0 := e.clk.now()
	s, err := build(w, config{wal: w.cfg.wal}, dir, e)
	if err != nil {
		return nil, 0, fmt.Errorf("reopen: %w", err)
	}
	took := e.clk.now() - t0
	got, err := s.snapshot()
	if err == nil {
		for _, v := range w.views {
			if err = sameRel(v.name+" reopened result", got[v.name], snap[v.name], 0); err != nil {
				break
			}
		}
	}
	var st ivm.Stats
	if err == nil {
		st, err = s.stats()
	}
	if err == nil && st.Durability.Applied != seq {
		err = fmt.Errorf("reopened feed Seq %d, want %d", st.Durability.Applied, seq)
	}
	if err != nil {
		s.close()
		return nil, 0, err
	}
	return s, took, nil
}
