package cluster

import (
	"sort"
	"time"

	"repro/internal/dist"
	"repro/internal/eval"
	"repro/internal/expr"
	"repro/internal/mring"
	"repro/internal/pool"
)

// worker is the driver's handle on one shard. The driver owns all
// orchestration; a worker only mutates and reports its own fragments.
// *Shard implements it in-process, called directly with fragments
// passed by reference; *remote implements it over a framed connection
// to a Shard in another process (proto.go). Relations handed to a
// worker become the worker's; relations a worker returns are its live
// fragments (in-process) or exact copies of them (remote), and the
// driver only reads them.
type worker interface {
	// runBlock executes one distributed block's statements over the
	// shard's fragments. Workers only read schemas, which the driver
	// resolved before the stage. Watched views get private change sinks.
	runBlock(stmts []dist.Stmt, schemas map[string]mring.Schema, watch []string) (blockResult, error)
	// installScatter clears the target fragment and installs frag (nil
	// installs nothing), merging from batch when the driver holds the
	// fragment columnar.
	installScatter(name string, schema mring.Schema, frag *mring.Relation, batch *pool.ColBatch, capture bool) (replaced, error)
	// installRepart rebuilds the target fragment from the exchange
	// pieces addressed to this shard, merged in sender-index order.
	installRepart(name string, srcSchema, lhsSchema mring.Schema, pieces []*mring.Relation, capture bool) (replaced, error)
	// installDelta replaces a relation with r (nil installs an empty one).
	installDelta(name string, r *mring.Relation) error
	// partitionOut splits the shard's fragment of src by key into one
	// piece per destination worker (nil for empty pieces).
	partitionOut(src string, schema mring.Schema, keyPos []int) ([]*mring.Relation, error)
	// fetch returns the shard's fragment of a relation, nil when absent.
	fetch(name string) (*mring.Relation, error)
	// snapshot returns every restorable fragment, encoded layout-exact.
	snapshot() (map[string]Frag, error)
	// restore replaces the shard's entire state with rels.
	restore(rels map[string]*mring.Relation) error
	// drop deletes every relation not named in keep.
	drop(keep map[string]bool) error
	// relations visits the shard's fragments with names sorted. Remote
	// fragments live in another process and are not visited.
	relations(f func(name string, r *mring.Relation))
	close() error
}

// blockResult is one worker's outcome of a distributed block.
type blockResult struct {
	stats   eval.Stats
	compute time.Duration
	// sinks holds each watched view's changes in the shard's fold order
	// (empty sinks may be omitted: merging them is a no-op).
	sinks map[string]*mring.Relation
}

// replaced carries a captured replacement install: the fragment after
// (cur) and before (old) the install. Both nil without capture; either
// may be nil when that side is empty.
type replaced struct {
	old, cur *mring.Relation
}

// node holds the relation fragments of one worker (or the driver).
type node struct {
	rels map[string]*mring.Relation
}

func newNode() *node { return &node{rels: make(map[string]*mring.Relation)} }

func (n *node) rel(name string, schema mring.Schema) *mring.Relation {
	r := n.rels[name]
	if r == nil {
		r = mring.NewRelation(schema)
		n.rels[name] = r
	}
	return r
}

// Shard is one worker's fragments plus the operations that mutate them.
// The driver calls an in-process Shard directly; a worker process runs
// one Shard per driver connection behind Handle, which decodes each
// request and calls the same methods. Either way the shard sees the
// same mutation sequence with the same relation layouts, so results are
// bitwise-identical across deployments.
//
// Calls on one shard are strictly sequential; distinct shards share
// nothing, so the driver may call them concurrently.
type Shard struct {
	// workers is the cluster's worker count (the exchange fan-out); zero
	// until a remote shard receives the driver's setup request.
	workers int
	node    *node
}

// NewShard returns an empty shard awaiting the driver's setup request.
func NewShard() *Shard { return newShard(0) }

func newShard(workers int) *Shard { return &Shard{workers: workers, node: newNode()} }

func (sh *Shard) runBlock(stmts []dist.Stmt, schemas map[string]mring.Schema, watch []string) (blockResult, error) {
	var sinks map[string]*mring.Relation
	for _, name := range watch {
		if sinks == nil {
			sinks = make(map[string]*mring.Relation, len(watch))
		}
		sinks[name] = mring.NewRelation(schemas[name])
	}
	start := time.Now()
	var st eval.Stats
	for _, s := range stmts {
		st.Add(runStmtOnNode(sh.node, schemas, s, sinks[s.LHS]))
	}
	return blockResult{stats: st, compute: time.Since(start), sinks: sinks}, nil
}

// replace clears the target fragment, refills it, and returns the
// captured replacement when asked.
func (sh *Shard) replace(name string, schema mring.Schema, capture bool, fill func(dst *mring.Relation)) replaced {
	dst := sh.node.rel(name, schema)
	var old *mring.Relation
	if capture {
		old = dst.Clone()
	}
	dst.Clear()
	fill(dst)
	if !capture {
		return replaced{}
	}
	return replaced{old: old, cur: dst}
}

func (sh *Shard) installScatter(name string, schema mring.Schema, frag *mring.Relation, batch *pool.ColBatch, capture bool) (replaced, error) {
	return sh.replace(name, schema, capture, func(dst *mring.Relation) {
		if frag != nil || batch != nil {
			installFragment(dst, frag, batch)
		}
	}), nil
}

func (sh *Shard) installRepart(name string, srcSchema, lhsSchema mring.Schema, pieces []*mring.Relation, capture bool) (replaced, error) {
	var incoming *mring.Relation
	for _, p := range pieces {
		if incoming == nil {
			incoming = mring.NewRelation(srcSchema)
		}
		incoming.Merge(p)
	}
	return sh.replace(name, lhsSchema, capture, func(dst *mring.Relation) {
		if incoming != nil {
			dst.Merge(incoming)
		}
	}), nil
}

func (sh *Shard) installDelta(name string, r *mring.Relation) error {
	sh.node.rels[name] = r
	return nil
}

func (sh *Shard) partitionOut(src string, schema mring.Schema, keyPos []int) ([]*mring.Relation, error) {
	return dist.SplitByKey(sh.node.rel(src, schema), keyPos, sh.workers), nil
}

func (sh *Shard) fetch(name string) (*mring.Relation, error) { return sh.node.rels[name], nil }

func (sh *Shard) snapshot() (map[string]Frag, error) { return snapRels(sh.node.rels, nil), nil }

func (sh *Shard) restore(rels map[string]*mring.Relation) error {
	sh.node.rels = rels
	return nil
}

func (sh *Shard) drop(keep map[string]bool) error {
	dropExcept(sh.node.rels, keep)
	return nil
}

func (sh *Shard) relations(f func(name string, r *mring.Relation)) { visitSorted(sh.node.rels, f) }

func (sh *Shard) close() error { return nil }

// dropExcept deletes every relation not named in keep.
func dropExcept(rels map[string]*mring.Relation, keep map[string]bool) {
	for name := range rels {
		if !keep[name] {
			delete(rels, name)
		}
	}
}

// visitSorted visits rels with names sorted.
func visitSorted(rels map[string]*mring.Relation, f func(name string, r *mring.Relation)) {
	names := make([]string, 0, len(rels))
	for name := range rels {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		f(name, rels[name])
	}
}

// runStmtOnNode evaluates a compute statement against one node's state
// and returns the evaluation statistics. It only reads the schema map
// (the driver resolved all schemas beforehand) and mutates nothing but
// the node's own fragments (and the caller-private sink), so concurrent
// calls on distinct nodes are race-free.
func runStmtOnNode(n *node, schemas map[string]mring.Schema, s dist.Stmt, sink *mring.Relation) eval.Stats {
	env := eval.NewEnv()
	// Bind every relation the statement reads; lazily create fragments.
	walkRefs(s.RHS, func(r *expr.Rel) {
		name := eval.RelEnvName(r)
		env.Bind(name, n.rel(name, schemas[name]))
	})
	target := n.rel(s.LHS, schemas[s.LHS])
	ctx := eval.NewCtx(env)
	if sink != nil {
		ctx.CaptureFolds(target, sink)
	}
	// FoldStmt runs aggregate statements (pre-aggregations and view
	// maintenance) through a per-worker hash-native group table over the
	// node's own fragments; the tables stay worker-local here and meet
	// only in applyXform's gather, in worker-index order.
	ctx.FoldStmt(target, s.Op, s.RHS)
	return ctx.Stats
}

// installFragment fills the just-cleared dst with a shipped fragment.
// With a columnar batch the rows merge straight from the batch and the
// batch becomes dst's mirror (the receiver keeps the fragment columnar);
// otherwise the rows merge from the source relation. Either way rows
// land in the source's Foreach order, so dst's storage is bitwise
// independent of which path ran.
func installFragment(dst, src *mring.Relation, batch *pool.ColBatch) {
	if batch == nil {
		dst.Merge(src)
		return
	}
	batch.MergeInto(dst)
	if dst.Len() == batch.Len() {
		pool.AttachMirror(dst, batch)
	}
}

// walkRefs visits every relational reference in an expression (descending
// into transformer bodies, though compute statements carry none).
func walkRefs(e expr.Expr, f func(*expr.Rel)) {
	switch x := e.(type) {
	case *dist.Xform:
		walkRefs(x.Body, f)
	case *expr.Rel:
		f(x)
	case *expr.Plus:
		for _, t := range x.Terms {
			walkRefs(t, f)
		}
	case *expr.Mul:
		for _, t := range x.Factors {
			walkRefs(t, f)
		}
	case *expr.Agg:
		walkRefs(x.Body, f)
	case *expr.Assign:
		if x.Q != nil {
			walkRefs(x.Q, f)
		}
	case *expr.Exists:
		walkRefs(x.Body, f)
	}
}
