// Package cluster runs the synchronous large-scale processing platform of
// Sec. 4 and 6.2 (the paper ran Spark 1.6.1 on 100 servers): one driver
// orchestrates N stateful workers; processing a batch runs a sequence of
// statement blocks, each distributed block being one stage executed by
// all workers in parallel.
//
// There is one driver, Cluster, over two kinds of worker: in-process
// shards (New), called directly with fragments passed by reference, and
// shards in worker processes behind a framed transport (Connect). Both
// really execute the compiled distributed programs over
// really-partitioned state, and both produce bitwise-identical results.
// The driver accounts each block's measured work once: New charges it
// through a virtual-time cost model for the platform terms the paper
// measures (per-stage scheduling/synchronization overhead that grows
// with the worker count, shuffle time proportional to the maximum
// per-worker payload, optional straggler inflation); Connect charges
// measured wall time. DESIGN.md §3 documents this substitution.
package cluster

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"repro/internal/dist"
	"repro/internal/eval"
	"repro/internal/expr"
	"repro/internal/mring"
	"repro/internal/pool"
)

// Config holds the platform cost-model parameters. The defaults are
// calibrated so that an empty-work stage reproduces the paper's Q6
// synchronization latencies (65 ms at 50 workers to ~390 ms at 1000).
type Config struct {
	Workers int
	// SchedBase is the fixed per-stage scheduling cost.
	SchedBase time.Duration
	// SchedPerWorker is the per-worker closure-shipping/sync cost added
	// to every stage.
	SchedPerWorker time.Duration
	// NetLatency is charged once per communication round (transformer).
	NetLatency time.Duration
	// BandwidthBytesPerSec is the effective per-worker shuffle bandwidth
	// (serialize + transfer + deserialize).
	BandwidthBytesPerSec float64
	// ComputeNsPerOp converts evaluation operation counts into virtual
	// compute time. Zero disables modeled compute (real measured time is
	// used instead).
	ComputeNsPerOp float64
	// StragglerProb is the per-stage probability that the slowest worker
	// is inflated by StragglerFactor (Sec. 6.2.1 observes 1.5–3x).
	StragglerProb   float64
	StragglerFactor float64
	// Seed drives straggler sampling and nothing else.
	Seed int64
}

// DefaultConfig returns the calibrated platform model.
func DefaultConfig(workers int) Config {
	return Config{
		Workers:              workers,
		SchedBase:            30 * time.Millisecond,
		SchedPerWorker:       350 * time.Microsecond,
		NetLatency:           5 * time.Millisecond,
		BandwidthBytesPerSec: 100 << 20, // 100 MB/s effective per worker
		ComputeNsPerOp:       25,
		StragglerProb:        0,
		StragglerFactor:      2,
		Seed:                 1,
	}
}

// Metrics reports the cost the driver charged for processing one batch:
// virtual time under a cost model (New), measured wall time without one
// (Connect).
type Metrics struct {
	// Latency is the end-to-end batch processing time.
	Latency time.Duration
	// ComputeMax accumulates, per stage, the slowest worker's compute.
	ComputeMax time.Duration
	// ComputeSum is total compute across all workers (CPU-seconds).
	ComputeSum time.Duration
	// ShuffledBytes is the total columnar wire size of the fragments
	// moved between nodes.
	ShuffledBytes int64
	// MaxWorkerShuffleBytes is the largest per-worker payload in any one
	// round (the term that bounds shuffle time).
	MaxWorkerShuffleBytes int64
	// Stages and Jobs echo the executed program structure.
	Stages int
	Jobs   int
}

// Add accumulates other into m (Latency and counters sum; the max field
// takes the max).
func (m *Metrics) Add(o Metrics) {
	m.Latency += o.Latency
	m.ComputeMax += o.ComputeMax
	m.ComputeSum += o.ComputeSum
	m.ShuffledBytes += o.ShuffledBytes
	if o.MaxWorkerShuffleBytes > m.MaxWorkerShuffleBytes {
		m.MaxWorkerShuffleBytes = o.MaxWorkerShuffleBytes
	}
	m.Stages += o.Stages
	m.Jobs += o.Jobs
}

// Cluster is one deployment's driver: schemas and partitioning are fixed
// at construction (until Repartition or Restore); state persists across
// batches (workers are stateful).
//
// Failure semantics: the first failed worker operation poisons the
// cluster (worker state may have partially advanced and cannot be
// trusted); every later operation returns the poisoning error, and
// ViewContents serves each view as of the last commit it observed, so a
// mid-transaction failure leaves results at the pre-transaction state.
type Cluster struct {
	// cfg is the virtual cost model; nil charges measured wall time.
	cfg     *Config
	driver  *node
	workers []worker
	// concurrent fans every worker call out on its own goroutine (remote
	// workers block on the network). In-process shards move data and
	// serve reads inline; only their stages run concurrently.
	concurrent bool
	// slots bounds the in-flight stage workers to the CPU count when an
	// in-process cluster measures compute (ComputeNsPerOp == 0), so each
	// worker's wall time approximates its own compute rather than
	// scheduler queueing behind the others.
	slots   chan struct{}
	schemas map[string]mring.Schema
	parts   dist.PartInfo
	rng     *rand.Rand
	// stats accumulates evaluation statistics across all nodes and
	// batches. Per-worker contributions are merged in worker-index order
	// after each stage barrier, so the totals are deterministic even
	// though the workers run concurrently.
	stats eval.Stats
	// watch maps each watched view (WatchView) to the delta accumulated
	// since its last TakeWatchDelta, gathered deterministically:
	// driver-side folds for local/replicated views, per-worker folds
	// merged strictly in worker-index order for distributed views.
	// Several views can be watched at once (multi-view serving); an
	// empty map disables all capture.
	watch map[string]*mring.Relation
	// workerCompute and workerStages accumulate, per worker, the charged
	// stage compute and the number of distributed stages executed — the
	// skew signal WorkerTimings exports (merged-away maxima alone cannot
	// show which worker is hot).
	workerCompute []time.Duration
	workerStages  []int

	// err is the poison: set by the first failed operation, returned by
	// every operation after it.
	err error
	// committed holds each view's last healthy read. It is shared with
	// that read's caller, so it is never mutated; since accumulates the
	// committed deltas noted after it (NoteDelta). A poisoned cluster
	// serves committed plus since. Reads cost no copy.
	committed map[string]*mring.Relation
	since     map[string]*mring.Relation
}

// WorkerTiming is one worker's accumulated share of distributed-stage
// work, as reported by WorkerTimings. Compute is the sum over stages of
// this worker's charged compute (the same per-worker term whose maximum
// feeds Metrics.ComputeMax); Stages counts the distributed stages the
// worker participated in. A max/mean ratio over Compute far above 1 is
// partition skew.
type WorkerTiming struct {
	Worker  int
	Compute time.Duration
	Stages  int
}

// New creates a cluster of cfg.Workers in-process shards with empty
// state, charged through cfg's cost model.
func New(cfg Config, schemas map[string]mring.Schema, parts dist.PartInfo) *Cluster {
	if cfg.Workers <= 0 {
		panic("cluster: need at least one worker")
	}
	workers := make([]worker, cfg.Workers)
	for i := range workers {
		workers[i] = newShard(cfg.Workers)
	}
	c := newCluster(&cfg, workers, false, schemas, parts)
	if cfg.ComputeNsPerOp <= 0 {
		c.slots = make(chan struct{}, runtime.GOMAXPROCS(0))
	}
	return c
}

func newCluster(cfg *Config, workers []worker, concurrent bool, schemas map[string]mring.Schema, parts dist.PartInfo) *Cluster {
	c := &Cluster{
		cfg:           cfg,
		driver:        newNode(),
		workers:       workers,
		concurrent:    concurrent,
		schemas:       schemas,
		parts:         parts,
		workerCompute: make([]time.Duration, len(workers)),
		workerStages:  make([]int, len(workers)),
		committed:     make(map[string]*mring.Relation),
		since:         make(map[string]*mring.Relation),
	}
	if cfg != nil {
		c.rng = rand.New(rand.NewSource(cfg.Seed))
	}
	return c
}

// Workers returns the worker count.
func (c *Cluster) Workers() int { return len(c.workers) }

// EvalStats returns the evaluation statistics accumulated across all
// nodes and batches.
func (c *Cluster) EvalStats() eval.Stats { return c.stats }

// Close releases the workers (severing remote connections). Safe to
// call more than once.
func (c *Cluster) Close() error {
	var first error
	for _, w := range c.workers {
		if err := w.close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// fail poisons the cluster with the first error and returns the poison.
func (c *Cluster) fail(err error) error {
	if c.err == nil {
		c.err = fmt.Errorf("cluster: worker operation failed, results frozen at last commit: %w", err)
	}
	return c.err
}

// each calls f for every worker and returns the lowest-index error.
// Stages, and every call on a concurrent cluster, run on one goroutine
// per worker behind a barrier; other calls on in-process shards run
// inline in index order. Callers write per-worker outcomes to per-index
// slots and merge them in worker-index order afterwards — the
// merge-determinism invariant.
func (c *Cluster) each(stage bool, f func(i int, w worker) error) error {
	if !stage && !c.concurrent {
		for i, w := range c.workers {
			if err := f(i, w); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, len(c.workers))
	var wg sync.WaitGroup
	wg.Add(len(c.workers))
	for i, w := range c.workers {
		go func(i int, w worker) {
			defer wg.Done()
			if stage && c.slots != nil {
				c.slots <- struct{}{}
				defer func() { <-c.slots }()
			}
			errs[i] = f(i, w)
		}(i, w)
	}
	wg.Wait()
	for _, e := range errs {
		if e != nil {
			return e
		}
	}
	return nil
}

// WorkerTimings returns each worker's accumulated distributed-stage
// compute since the cluster started, in worker-index order. Callers
// diff consecutive snapshots to get per-transaction skew.
func (c *Cluster) WorkerTimings() []WorkerTiming {
	out := make([]WorkerTiming, len(c.workers))
	for i := range c.workers {
		out[i] = WorkerTiming{Worker: i, Compute: c.workerCompute[i], Stages: c.workerStages[i]}
	}
	return out
}

// ForEachRelation visits every named relation fragment the driver can
// reach — the driver's first, then each in-process worker's in index
// order, names sorted within each node — so per-fragment state (index
// admission records) can be swept and aggregated deterministically.
// Remote workers' fragments live in their own processes and are not
// visited (DESIGN.md §11).
func (c *Cluster) ForEachRelation(f func(name string, r *mring.Relation)) {
	visitSorted(c.driver.rels, f)
	for _, w := range c.workers {
		w.relations(f)
	}
}

// Repartition swaps the cluster's placement map between transactions:
// every relation not named in keep (moved views, temp/transient state,
// and stale delta fragments — anything a program compiled against the
// old placement may have left behind) is dropped from the driver and
// all workers, the new placement takes effect, and the moved views'
// gathered contents are re-installed under their new locations via
// WarmViews (which takes ownership of them). The caller must not run a
// program compiled against the old placement afterwards.
func (c *Cluster) Repartition(parts dist.PartInfo, contents map[string]*mring.Relation, keep map[string]bool) error {
	if c.err != nil {
		return c.err
	}
	dropExcept(c.driver.rels, keep)
	if err := c.each(false, func(_ int, w worker) error { return w.drop(keep) }); err != nil {
		return c.fail(err)
	}
	// Moved contents usually come from ViewContents, which shares its
	// result with the read cache; the cluster is about to own and
	// mutate them, so the cache keeps a copy.
	for name, rel := range contents {
		if c.committed[name] == rel {
			c.committed[name] = rel.Clone()
		}
	}
	c.parts = parts
	return c.WarmViews(contents)
}

// WatchView starts capturing every maintenance write to the named view
// as a per-batch delta. Several views can be watched at once; watching
// an already-watched view keeps its accumulator. The view must be one of
// the schemas the cluster was constructed with.
func (c *Cluster) WatchView(name string) {
	s, ok := c.schemas[name]
	if !ok {
		panic(fmt.Sprintf("cluster: cannot watch unknown view %q", name))
	}
	if c.watch == nil {
		c.watch = make(map[string]*mring.Relation, 1)
	}
	if c.watch[name] == nil {
		c.watch[name] = mring.NewRelation(s)
	}
}

// UnwatchView stops delta capture for one view; once the last watched
// view is removed, batches run with zero capture overhead again.
func (c *Cluster) UnwatchView(name string) {
	delete(c.watch, name)
}

// TakeWatchDelta returns the delta accumulated for the named view since
// the last call (its per-group change) and resets the accumulator. Nil
// when the view is not watched.
func (c *Cluster) TakeWatchDelta(name string) *mring.Relation {
	d := c.watch[name]
	if d != nil {
		c.watch[name] = mring.NewRelation(c.schemas[name])
	}
	return d
}

// NoteDelta records a committed per-batch delta of a view, keeping the
// poisoned-read fallback at the last commit without a re-read (or a
// copy) per transaction.
func (c *Cluster) NoteDelta(name string, delta *mring.Relation) {
	if c.err != nil || delta == nil || c.committed[name] == nil {
		return
	}
	s := c.since[name]
	if s == nil {
		s = mring.NewRelation(delta.Schema())
		c.since[name] = s
	}
	s.Merge(delta)
}

// watchDriverSide reports whether a view's canonical maintenance writes
// happen at the driver (local and replicated views; for a replicated
// view only the driver mirror is captured — every worker replays the
// identical delta) rather than on the workers (distributed views,
// captured per worker and merged in index order).
func (c *Cluster) watchDriverSide(name string) bool {
	loc, ok := c.parts[name]
	return !ok || loc.Kind != dist.LDist
}

// driverSinkFor returns the capture sink for a driver-side fold into
// lhs, nil when lhs is unwatched or worker-maintained.
func (c *Cluster) driverSinkFor(lhs string) *mring.Relation {
	d := c.watch[lhs]
	if d == nil || !c.watchDriverSide(lhs) {
		return nil
	}
	return d
}

// WarmViews installs initial contents for materialized views before
// streaming (the distributed warm start): each view's relation is placed
// according to its canonical location — driver copy for local views,
// key-partitioned worker fragments (via the platform placement function,
// dist.SplitByKey) for distributed views, and a full replica per worker
// plus the driver mirror for replicated views. Call before the first
// batch; the relations are owned by the cluster afterwards.
func (c *Cluster) WarmViews(contents map[string]*mring.Relation) error {
	if c.err != nil {
		return c.err
	}
	for name, rel := range contents {
		if rel == nil {
			continue
		}
		schema := schemaOfIn(c.schemas, name, rel.Schema())
		loc := c.parts[name]
		var frags []*mring.Relation
		switch {
		case loc.Kind == dist.LLocal:
			c.driver.rels[name] = rel
			continue
		case loc.Kind == dist.LIndiff:
			c.driver.rels[name] = rel
			frags = make([]*mring.Relation, len(c.workers))
			for i := range frags {
				frags[i] = rel.Clone()
			}
		case loc.Keyed():
			keyPos := make([]int, len(loc.Key))
			for i, k := range loc.Key {
				p := schema.Index(k)
				if p < 0 {
					return fmt.Errorf("cluster: warm load of %q: key column %q not in schema %v", name, k, schema)
				}
				keyPos[i] = p
			}
			frags = dist.SplitByKey(rel, keyPos, len(c.workers))
			for i := range frags {
				if frags[i] == nil {
					frags[i] = mring.NewRelation(schema)
				}
			}
		default:
			return fmt.Errorf("cluster: cannot warm load view %q located %v", name, loc)
		}
		if err := c.each(false, func(i int, w worker) error { return w.installDelta(name, frags[i]) }); err != nil {
			return c.fail(err)
		}
	}
	return nil
}

// schemaOfIn returns the schema for a view/delta name, registering the
// fallback when unknown (temp views register lazily on first write).
func schemaOfIn(schemas map[string]mring.Schema, name string, fallback mring.Schema) mring.Schema {
	if s, ok := schemas[name]; ok {
		return s
	}
	schemas[name] = fallback.Clone()
	return schemas[name]
}

// Run processes one update batch for the program's relation: the batch
// starts at the driver (the paper's Fig. 5 shape: LOCAL DELTA := {...}
// then SCATTER). Returns the metrics of this batch.
func (c *Cluster) Run(prog *dist.DistProgram, batch *mring.Relation) (Metrics, error) {
	if prog == nil {
		return Metrics{}, fmt.Errorf("cluster: nil distributed program (unknown relation?)")
	}
	if c.err != nil {
		return Metrics{}, c.err
	}
	dn := eval.DeltaName(prog.Relation)
	c.driver.rels[dn] = batch
	c.schemas[dn] = batch.Schema()
	return c.runBlocks(prog)
}

// RunPartitioned processes a batch already spread over workers (the
// weak/strong scaling experiments simulate workers ingesting stream
// fragments directly, Sec. 6.2). partsOfBatch must have one relation per
// worker. The program must have been compiled with the delta tagged
// Random.
func (c *Cluster) RunPartitioned(prog *dist.DistProgram, partsOfBatch []*mring.Relation) (Metrics, error) {
	if prog == nil {
		return Metrics{}, fmt.Errorf("cluster: nil distributed program (unknown relation?)")
	}
	if c.err != nil {
		return Metrics{}, c.err
	}
	if len(partsOfBatch) != len(c.workers) {
		return Metrics{}, fmt.Errorf("cluster: got %d batch partitions for %d workers", len(partsOfBatch), len(c.workers))
	}
	dn := eval.DeltaName(prog.Relation)
	for _, p := range partsOfBatch {
		if p != nil {
			c.schemas[dn] = p.Schema()
		}
	}
	if err := c.each(false, func(i int, w worker) error { return w.installDelta(dn, partsOfBatch[i]) }); err != nil {
		return Metrics{}, c.fail(err)
	}
	return c.runBlocks(prog)
}

// RunPartitionedBatch deals a driver-resident batch round-robin over the
// workers and processes it as RunPartitioned.
func (c *Cluster) RunPartitionedBatch(prog *dist.DistProgram, batch *mring.Relation) (Metrics, error) {
	frags := make([]*mring.Relation, len(c.workers))
	for i := range frags {
		frags[i] = mring.NewRelation(batch.Schema())
	}
	i := 0
	batch.Foreach(func(t mring.Tuple, m float64) {
		frags[i%len(frags)].Add(t, m)
		i++
	})
	return c.RunPartitioned(prog, frags)
}

// runBlocks executes the program's blocks in order. Any failure poisons:
// installs may have landed on a subset of workers, so worker state can
// no longer be trusted.
func (c *Cluster) runBlocks(prog *dist.DistProgram) (Metrics, error) {
	var m Metrics
	m.Stages = prog.Stages()
	m.Jobs = prog.Jobs()
	for _, b := range prog.Blocks {
		var err error
		if b.Mode == dist.LDist {
			err = c.runDistBlock(b, &m)
		} else {
			err = c.runLocalBlock(b, &m)
		}
		if err != nil {
			return m, c.fail(err)
		}
	}
	return m, nil
}

// prepareStmts resolves every schema a block's statements may register, in
// statement order, before any worker runs. Workers executing concurrently
// then only read the schema map; all lazy registration happens here, on
// the driver thread.
func prepareStmts(schemas map[string]mring.Schema, stmts []dist.Stmt) {
	for _, s := range stmts {
		walkRefs(s.RHS, func(r *expr.Rel) {
			name := eval.RelEnvName(r)
			if _, ok := schemas[name]; !ok {
				schemas[name] = r.Cols.Clone()
			}
		})
		if x, ok := s.RHS.(*dist.Xform); ok {
			if src, ok := x.Body.(*expr.Rel); ok {
				schemaOfIn(schemas, s.LHS, schemaOfIn(schemas, eval.RelEnvName(src), src.Cols))
			}
			continue
		}
		schemaOfIn(schemas, s.LHS, s.RHS.Schema())
	}
}

// runLocalBlock executes driver-side statements; transformer statements
// trigger data movement. All transformers of a block share one
// communication round (the code-generation batching of Sec. 4.4).
func (c *Cluster) runLocalBlock(b dist.Block, m *Metrics) error {
	prepareStmts(c.schemas, b.Stmts)
	shuffled := false
	var bytes, maxPer int64
	start := time.Now()
	var st eval.Stats
	for _, s := range b.Stmts {
		if x, ok := s.RHS.(*dist.Xform); ok {
			total, per, err := c.applyXform(s.LHS, x)
			if err != nil {
				return err
			}
			shuffled = true
			bytes += total
			maxPer = max(maxPer, per)
			continue
		}
		st.Add(runStmtOnNode(c.driver, c.schemas, s, c.driverSinkFor(s.LHS)))
	}
	c.stats.Add(st)
	c.chargeLocal(m, c.computeTime(st, time.Since(start)), shuffled, bytes, maxPer)
	return nil
}

// runDistBlock executes one stage: every worker runs the block's
// statements over its fragments concurrently, with a barrier closing the
// stage (the platform's synchronous-round model). Worker state is
// shared-nothing, and all schema registration happens in prepareStmts
// before the fan-out, so the workers race on nothing; results are
// bit-identical to sequential execution because each worker's own
// statement order is unchanged and per-worker outcomes are merged in
// worker-index order after the barrier.
func (c *Cluster) runDistBlock(b dist.Block, m *Metrics) error {
	prepareStmts(c.schemas, b.Stmts)
	// Worker-side delta capture: every worker folds its changes to each
	// watched worker-maintained view this stage writes into a private
	// sink; the sinks merge into the batch delta strictly in worker-index
	// order after the barrier, so each view's gathered delta is
	// deterministic despite concurrent workers.
	var watch []string
	for name := range c.watch {
		if c.watchDriverSide(name) {
			continue
		}
		for _, s := range b.Stmts {
			if s.LHS == name {
				watch = append(watch, name)
				break
			}
		}
	}
	res := make([]blockResult, len(c.workers))
	start := time.Now()
	if err := c.each(true, func(i int, w worker) error {
		var err error
		res[i], err = w.runBlock(b.Stmts, c.schemas, watch)
		return err
	}); err != nil {
		return err
	}
	wall := time.Since(start)
	for _, name := range watch {
		dst := c.watch[name]
		for i := range res {
			if s := res[i].sinks[name]; s != nil {
				dst.Merge(s)
			}
		}
	}
	computes := make([]time.Duration, len(res))
	for i := range res {
		c.stats.Add(res[i].stats)
		computes[i] = c.computeTime(res[i].stats, res[i].compute)
	}
	c.chargeStage(m, computes, wall)
	return nil
}

// computeTime is one node's charged compute for a block: evaluation
// operations times the modeled per-op cost, or the measured time when
// compute is not modeled.
func (c *Cluster) computeTime(st eval.Stats, measured time.Duration) time.Duration {
	if c.cfg != nil && c.cfg.ComputeNsPerOp > 0 {
		return time.Duration(float64(st.Lookups+st.Scans+st.Emits) * c.cfg.ComputeNsPerOp)
	}
	return measured
}

// chargeLocal accounts one driver block: its compute, plus, when it
// shuffled, the round's bytes and — under the cost model — the round's
// network latency and transfer time of the largest per-worker payload.
func (c *Cluster) chargeLocal(m *Metrics, compute time.Duration, shuffled bool, bytes, maxPer int64) {
	m.Latency += compute
	m.ComputeMax += compute
	m.ComputeSum += compute
	if !shuffled {
		return
	}
	m.ShuffledBytes += bytes
	m.MaxWorkerShuffleBytes = max(m.MaxWorkerShuffleBytes, maxPer)
	if c.cfg != nil {
		m.Latency += c.cfg.NetLatency +
			time.Duration(float64(maxPer)/c.cfg.BandwidthBytesPerSec*float64(time.Second))
	}
}

// chargeStage accounts one stage from its per-worker compute: under the
// cost model the stage takes the scheduling overhead plus the slowest
// worker (optionally straggler-inflated); without it, the measured wall
// time of the barrier.
func (c *Cluster) chargeStage(m *Metrics, computes []time.Duration, wall time.Duration) {
	var maxCompute, sumCompute time.Duration
	for i, d := range computes {
		c.workerCompute[i] += d
		c.workerStages[i]++
		sumCompute += d
		maxCompute = max(maxCompute, d)
	}
	if c.cfg == nil {
		m.Latency += wall
	} else {
		if c.cfg.StragglerProb > 0 && c.rng.Float64() < c.cfg.StragglerProb {
			maxCompute = time.Duration(float64(maxCompute) * c.cfg.StragglerFactor)
		}
		m.Latency += c.cfg.SchedBase + time.Duration(c.cfg.Workers)*c.cfg.SchedPerWorker + maxCompute
	}
	m.ComputeMax += maxCompute
	m.ComputeSum += sumCompute
}

// captureReplace folds a captured replacement of a watched view copy
// (old contents swapped for cur) into that view's batch delta.
func (c *Cluster) captureReplace(name string, rep replaced) {
	d := c.watch[name]
	if rep.cur != nil {
		d.Merge(rep.cur)
	}
	if rep.old != nil {
		d.MergeScaled(rep.old, -1)
	}
}

// applyXform performs the data movement of one transformer statement and
// returns (total bytes moved, max per-worker bytes). Bytes are each
// shipped fragment's size in the columnar wire format, computed on the
// driver for either worker kind. A transformer whose target is the
// watched view (the re-evaluation policy's `Q := ...` installs)
// contributes its replacement diff to the batch delta: at the driver for
// a gathered local view, per worker — merged in index order — for
// scattered/repartitioned distributed views. Broadcast installs of
// replicated views are not captured here: the driver mirror fold already
// recorded the identical delta.
func (c *Cluster) applyXform(lhs string, x *dist.Xform) (int64, int64, error) {
	src, ok := x.Body.(*expr.Rel)
	if !ok {
		return 0, 0, fmt.Errorf("cluster: transformer body is not a view reference: %s", x)
	}
	srcName := eval.RelEnvName(src)
	srcSchema := schemaOfIn(c.schemas, srcName, src.Cols)
	lhsSchema := schemaOfIn(c.schemas, lhs, srcSchema)
	keyPos := make([]int, len(x.Key))
	for i, k := range x.Key {
		p := src.Cols.Index(k)
		if p < 0 {
			return 0, 0, fmt.Errorf("cluster: key column %q not in %s(%v)", k, srcName, src.Cols)
		}
		keyPos[i] = p
	}
	n := len(c.workers)
	captureWorkers := c.watch[lhs] != nil && !c.watchDriverSide(lhs)
	reps := make([]replaced, n)
	var total, maxPer int64
	switch x.Kind {
	case dist.XScatter:
		srcRel := c.driver.rel(srcName, srcSchema)
		frags := make([]*mring.Relation, n)
		batches := make([]*pool.ColBatch, n)
		if len(x.Key) == 0 {
			// Broadcast: encode once and install the same columnar batch on
			// every worker. The batch IS each replica's mirror, so the
			// workers hold the fragment columnar from the start — kernel
			// scans and later re-encodes reuse it with no conversion.
			sz, fb := encodeSize(srcRel), fragmentBatch(srcRel)
			for i := range frags {
				frags[i], batches[i] = srcRel, fb
			}
			total, maxPer = sz*int64(n), sz
		} else {
			frags = dist.SplitByKey(srcRel, keyPos, n)
			for i, f := range frags {
				if f == nil {
					continue
				}
				sz := encodeSize(f)
				batches[i] = fragmentBatch(f)
				total += sz
				maxPer = max(maxPer, sz)
			}
		}
		if err := c.each(false, func(i int, w worker) error {
			var err error
			reps[i], err = w.installScatter(lhs, lhsSchema, frags[i], batches[i], captureWorkers)
			return err
		}); err != nil {
			return 0, 0, err
		}
	case dist.XRepart:
		// Exchange, two phases: every worker splits its fragment by key;
		// then every receiver rebuilds its fragment from the senders'
		// pieces in worker-index order. Local pieces do not cross the
		// network.
		out := make([][]*mring.Relation, n) // out[sender][receiver]
		if err := c.each(false, func(i int, w worker) error {
			var err error
			out[i], err = w.partitionOut(srcName, srcSchema, keyPos)
			return err
		}); err != nil {
			return 0, 0, err
		}
		in := make([][]*mring.Relation, n) // in[receiver], senders in order
		for wi, pieces := range out {
			if len(pieces) != n {
				return 0, 0, fmt.Errorf("cluster: worker %d returned %d exchange pieces for %d workers", wi, len(pieces), n)
			}
			var sent int64
			for ti, f := range pieces {
				if f == nil || f.Len() == 0 {
					continue
				}
				if ti != wi {
					sz := encodeSize(f)
					total += sz
					sent += sz
				}
				in[ti] = append(in[ti], f)
			}
			maxPer = max(maxPer, sent)
		}
		if err := c.each(false, func(i int, w worker) error {
			var err error
			reps[i], err = w.installRepart(lhs, srcSchema, lhsSchema, in[i], captureWorkers)
			return err
		}); err != nil {
			return 0, 0, err
		}
	default: // Gather
		// The workers' pre-aggregated fragments merge into one group
		// table strictly in worker-index order, so the driver replays the
		// same float additions in the same sequence on every run — the
		// gathered result is deterministic despite the workers having
		// computed their fragments concurrently. The table then
		// blind-fills the driver view with its stored hashes.
		frags, err := c.fetchAll(srcName)
		if err != nil {
			return 0, 0, err
		}
		gt := mring.NewGroupTable(srcSchema)
		for _, f := range frags {
			if f == nil || f.Len() == 0 {
				continue
			}
			sz := encodeSize(f)
			total += sz
			maxPer = max(maxPer, sz)
			gt.MergeRelation(f)
		}
		dst := c.driver.rel(lhs, lhsSchema)
		var old *mring.Relation
		if c.watch[lhs] != nil && c.watchDriverSide(lhs) {
			old = dst.Clone()
		}
		dst.Clear()
		gt.FillRelation(dst)
		if old != nil {
			c.captureReplace(lhs, replaced{old: old, cur: dst})
		}
		return total, maxPer, nil
	}
	if captureWorkers {
		for _, rep := range reps {
			c.captureReplace(lhs, rep)
		}
	}
	return total, maxPer, nil
}

// fetchAll returns every worker's fragment of a relation in index order
// (nil where absent).
func (c *Cluster) fetchAll(name string) ([]*mring.Relation, error) {
	frags := make([]*mring.Relation, len(c.workers))
	err := c.each(false, func(i int, w worker) error {
		var err error
		frags[i], err = w.fetch(name)
		return err
	})
	return frags, err
}

// encodeSize serializes through the columnar wire format and returns the
// payload size — the measured network traffic. The encode attaches (and
// reuses) the relation's columnar mirror, so fragmentBatch right after it
// is free.
func encodeSize(r *mring.Relation) int64 {
	if r.Len() == 0 {
		return 0
	}
	return int64(len(pool.EncodeRelation(r)))
}

// fragmentBatch returns the columnar form a shuffle ships for r, or nil
// when r cannot be represented losslessly (mixed-kind columns) and the
// fragment must move by row-format reference instead.
func fragmentBatch(r *mring.Relation) *pool.ColBatch {
	if r.Len() == 0 {
		return nil
	}
	if ov := pool.MirrorOf(r); ov != nil {
		return ov.Base()
	}
	return nil
}

// ViewContents reconstructs the full logical contents of a view by
// merging the driver copy and the worker fragments. The result is shared
// with the poisoned-read cache, so callers must not mutate it. A
// poisoned cluster serves the view as of its last healthy read plus the
// deltas committed since, so readers never observe a partially applied
// transaction.
func (c *Cluster) ViewContents(name string) *mring.Relation {
	if c.err == nil {
		out, err := c.viewContents(name)
		if err == nil {
			c.committed[name] = out
			delete(c.since, name)
			return out
		}
		c.fail(err)
	}
	out := mring.NewRelation(c.schemas[name])
	if r := c.committed[name]; r != nil {
		out.Merge(r)
		if d := c.since[name]; d != nil {
			out.Merge(d)
		}
	}
	return out
}

func (c *Cluster) viewContents(name string) (*mring.Relation, error) {
	out := mring.NewRelation(c.schemas[name])
	loc, ok := c.parts[name]
	if ok && loc.Kind == dist.LLocal {
		if r := c.driver.rels[name]; r != nil {
			out.Merge(r)
		}
		return out, nil
	}
	frags, err := c.fetchAll(name)
	if err != nil {
		return nil, err
	}
	for _, f := range frags {
		if f == nil {
			continue
		}
		out.Merge(f)
		if loc.Kind == dist.LIndiff {
			return out, nil // replicated: the first copy is the contents
		}
	}
	if !ok {
		if r := c.driver.rels[name]; r != nil {
			out.Merge(r)
		}
	}
	return out, nil
}
