package main

import (
	"fmt"
	"os"
	"path/filepath"

	ivm "repro"
	"repro/internal/compile"
	"repro/internal/mring"
	"repro/internal/tpch"
)

// Durability levels of a configuration.
const (
	noWAL = iota
	walNoFsync
	walFsync
)

// config is one way of serving a workload: the rungs of the layer ladder
// differ only in it.
type config struct {
	workers int // 0 serves on the local backend
	subs    bool
	wal     int
}

func (c config) String() string {
	s := "local"
	if c.workers > 0 {
		s = fmt.Sprintf("dist%d", c.workers)
	}
	if c.subs {
		s += "+subs"
	}
	switch c.wal {
	case walNoFsync:
		s += "+wal-nofsync"
	case walFsync:
		s += "+wal-fsync"
	}
	return s
}

// view is one maintained query of a workload.
type view struct {
	name  string
	query tpch.Query
}

// system is one built Engine (a single view) or Registry (several),
// with its subscribers. Everything goes through the public ivm API.
type system struct {
	eng   *ivm.Engine
	reg   *ivm.Registry
	views []view
	dir   string
	subs  []*replaySub
	// lastApply is when the current Apply call began; subscriber
	// callbacks read it to measure feed lag.
	lastApply int64
	lags      []int64
	groups    int64
	tr        *tracer
	clk       *clock
	// compileNs and warmNs split the set-up time (see runEnv.setup).
	compileNs, warmNs int64
}

// checkpointEvery is the fixed CheckpointEvery of durable systems.
const checkpointEvery = 2000

// build compiles the workload's views under cfg and attaches its
// subscribers; the system is ready to Warm. dir is the durable
// directory (used only when cfg.wal is set).
func build(w *workload, cfg config, dir string, e *runEnv) (*system, error) {
	var opts []ivm.Option
	if cfg.workers > 0 {
		opts = append(opts, ivm.Distributed(cfg.workers), ivm.KeyRanks(tpch.PrimaryKeyRanks))
	}
	if cfg.wal != noWAL {
		var dopts []ivm.DurOpt
		if cfg.wal == walNoFsync {
			dopts = append(dopts, ivm.NoFsync())
		}
		dopts = append(dopts, ivm.CheckpointEvery(checkpointEvery))
		opts = append(opts, ivm.Durable(dir, dopts...))
	}
	s := &system{views: w.views, tr: e.tr, clk: e.clk}
	if cfg.wal != noWAL {
		s.dir = dir
	}
	var err error
	if len(w.views) == 1 {
		q := w.views[0].query
		s.eng, err = ivm.New(q.Name, q.Def, w.bases(), opts...)
	} else {
		s.reg, err = ivm.NewRegistry(w.bases(), opts...)
		for _, v := range w.views {
			if err == nil {
				err = s.reg.Register(v.name, v.query.Def)
			}
		}
		if err == nil {
			_, err = s.reg.Program() // compile (and recover) now, not on first use
		}
	}
	if err != nil {
		return nil, err
	}
	if cfg.subs {
		for _, v := range w.views {
			keys := e.subKeys
			if len(keys) == 0 {
				keys = [][]ivm.Value{nil}
			}
			for _, k := range keys {
				if err := s.subscribe(v.name, k); err != nil {
					s.close()
					return nil, err
				}
			}
		}
	}
	return s, nil
}

// replaySub is one subscriber: it replays every delta it receives into
// a relation that starts empty.
type replaySub struct {
	view    string
	key     []ivm.Value
	replay  *mring.Relation
	lastSeq int64
}

func (s *system) subscribe(view string, key []ivm.Value) error {
	sub := &replaySub{view: view, key: key, replay: mring.NewRelation(nil)}
	fn := func(d ivm.Delta) {
		sp := s.tr.begin("ivm.feed", -1)
		s.lags = append(s.lags, s.clk.now()-s.lastApply)
		s.groups += int64(d.Len())
		sub.lastSeq = d.Seq
		d.Foreach(func(t ivm.Tuple, c float64) { sub.replay.Add(t, c) })
		s.tr.end(sp)
	}
	var opts []ivm.SubOption
	if key != nil {
		opts = append(opts, ivm.OnKey(key...))
	}
	var err error
	if s.eng != nil {
		_, err = s.eng.Subscribe(fn, opts...)
	} else {
		_, err = s.reg.Subscribe(view, fn, opts...)
	}
	if err != nil {
		return fmt.Errorf("subscribe %s: %w", view, err)
	}
	s.subs = append(s.subs, sub)
	return nil
}

// txOf turns a generated transaction into an ivm.Tx.
func (s *system) txOf(g genTx) (*ivm.Tx, error) {
	var tx *ivm.Tx
	if s.eng != nil {
		tx = s.eng.NewTx()
	} else {
		tx = s.reg.NewTx()
	}
	for _, c := range g.changes {
		if err := tx.Change(c.table, c.row, c.mult); err != nil {
			return nil, err
		}
	}
	return tx, nil
}

func (s *system) apply(tx *ivm.Tx) error {
	if s.eng != nil {
		return s.eng.Apply(tx)
	}
	return s.reg.Apply(tx)
}

func (s *system) warm(tables map[string]*ivm.Batch) error {
	if s.eng != nil {
		return s.eng.Warm(tables)
	}
	return s.reg.Warm(tables)
}

func (s *system) result(name string) (*ivm.Result, error) {
	if s.eng != nil {
		return s.eng.Result(), nil
	}
	return s.reg.Result(name)
}

func (s *system) stats() (ivm.Stats, error) {
	if s.eng != nil {
		return s.eng.Stats(), nil
	}
	return s.reg.Stats()
}

func (s *system) metrics() ivm.Metrics {
	if s.eng != nil {
		return s.eng.Metrics()
	}
	return s.reg.Metrics()
}

func (s *system) program() (*compile.Program, error) {
	if s.eng != nil {
		return s.eng.Program(), nil
	}
	return s.reg.Program()
}

func (s *system) checkpoint() error {
	if s.eng != nil {
		return s.eng.Checkpoint()
	}
	return s.reg.Checkpoint()
}

func (s *system) close() error {
	if s.eng != nil {
		return s.eng.Close()
	}
	return s.reg.Close()
}

// release closes the system and removes its durable directory.
func (s *system) release() error {
	err := s.close()
	if s.dir != "" {
		if rerr := os.RemoveAll(s.dir); err == nil {
			err = rerr
		}
	}
	return err
}

// snapshot copies every view's current result into relations the
// benchmark owns.
func (s *system) snapshot() (map[string]*mring.Relation, error) {
	out := make(map[string]*mring.Relation, len(s.views))
	for _, v := range s.views {
		r, err := s.result(v.name)
		if err != nil {
			return nil, err
		}
		out[v.name] = resultRel(r)
	}
	return out, nil
}

// resultRel copies a public Result into a relation.
func resultRel(r *ivm.Result) *mring.Relation {
	rel := mring.NewRelation(nil)
	r.Foreach(func(t ivm.Tuple, v float64) { rel.Add(t, v) })
	return rel
}

// batches builds Warm input from live rows.
func batches(rows map[string][]mring.Tuple) (map[string]*ivm.Batch, error) {
	out := make(map[string]*ivm.Batch, len(rows))
	for t, rs := range rows {
		b := ivm.NewBatch(tpch.Schemas[t])
		for _, r := range rs {
			if err := b.Insert(r); err != nil {
				return nil, err
			}
		}
		out[t] = b
	}
	return out, nil
}

// relations builds base relations from live rows.
func relations(rows map[string][]mring.Tuple) map[string]*mring.Relation {
	out := make(map[string]*mring.Relation, len(rows))
	for t, rs := range rows {
		r := mring.NewRelation(tpch.Schemas[t])
		for _, row := range rs {
			r.Add(row, 1)
		}
		out[t] = r
	}
	return out
}

// scratchDir returns a fresh directory name under the run's scratch
// root.
func (e *runEnv) scratchDir() string {
	e.dirs++
	return filepath.Join(e.root, fmt.Sprintf("d%03d", e.dirs))
}
