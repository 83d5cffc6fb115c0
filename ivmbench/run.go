package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"time"

	ivm "repro"
	"repro/internal/compile"
	"repro/internal/mring"
)

// clock reads monotonic nanoseconds since the run began.
type clock struct{ t0 time.Time }

func newClock() *clock { return &clock{t0: time.Now()} }

func (c *clock) now() int64 { return int64(time.Since(c.t0)) }

// runEnv is what one benchmark run shares: its clock, tracer and
// scratch directory.
type runEnv struct {
	clk  *clock
	tr   *tracer // nil when untraced
	root string
	dirs int
	// subKeys are the OnKey prefixes of the workload's subscribers.
	subKeys [][]ivm.Value
}

// setup compiles, opens and warms one system from the live rows,
// recording its set-up time split into compile and warm. Each set-up
// starts from an empty plan cache, as a fresh process would.
func (e *runEnv) setup(w *workload, cfg config, rows map[string][]mring.Tuple) (*system, error) {
	b, err := batches(rows)
	if err != nil {
		return nil, err
	}
	compile.SharedPlans = compile.NewPlanCache()
	dir := e.scratchDir()
	sp := e.tr.begin("setup.compile", 0)
	t0 := e.clk.now()
	s, err := build(w, cfg, dir, e)
	t1 := e.clk.now()
	e.tr.end(sp)
	if err != nil {
		return nil, fmt.Errorf("build %s: %w", cfg, err)
	}
	sp = e.tr.begin("setup.warm", 0)
	err = s.warm(b)
	t2 := e.clk.now()
	e.tr.end(sp)
	if err != nil {
		s.release()
		return nil, fmt.Errorf("warm %s: %w", cfg, err)
	}
	s.compileNs, s.warmNs = t1-t0, t2-t1
	s.lags, s.groups = s.lags[:0], 0 // count the stream only, not Warm
	return s, nil
}

// loopStats is what a closed-loop pass over the system measured.
type loopStats struct {
	txs, changes      int64
	attempted, failed int64
	elapsed           int64
	commits, reads    []int64
	steps             []int64 // each iteration's wall time
	// gen is the time spent generating transactions and read keys,
	// which elapsed leaves out; txBuild is the time spent building
	// ivm.Tx values from them, which elapsed keeps.
	gen, txBuild int64
}

// loop drives the closed loop: generate a transaction, apply it, then
// run a read round; it stops after maxTxs transactions or once the
// deadline (nanoseconds on the run clock) has passed, whichever is set.
func (e *runEnv) loop(s *system, next func() (genTx, []readKey), maxTxs int, deadline int64) loopStats {
	var ls loopStats
	for {
		if maxTxs > 0 && ls.txs >= int64(maxTxs) || deadline > 0 && e.clk.now() >= deadline {
			break
		}
		e.step(s, next, &ls)
	}
	return ls
}

// step runs one iteration of the closed loop and adds it to ls. The
// benchmark's own generation of the transaction is not counted in the
// elapsed time; building the ivm.Tx from it is.
func (e *runEnv) step(s *system, next func() (genTx, []readKey), ls *loopStats) {
	start := e.clk.now()
	var gen int64
	defer func() {
		d := e.clk.now() - start
		ls.elapsed += d - gen
		ls.steps = append(ls.steps, d)
	}()
	ls.txs++
	id := ls.txs
	root := e.tr.begin("tx", id)
	defer e.tr.end(root)
	sp := e.tr.begin("client.gen", id)
	g, keys := next()
	e.tr.end(sp)
	b0 := e.clk.now()
	gen = b0 - start
	ls.gen += gen
	sp = e.tr.begin("ivm.tx", id)
	tx, err := s.txOf(g)
	ls.txBuild += e.clk.now() - b0
	e.tr.end(sp)
	ls.attempted++
	if err != nil {
		ls.failed++
		return
	}
	sp = e.tr.begin("ivm.apply", id)
	t0 := e.clk.now()
	s.lastApply = t0
	err = s.apply(tx)
	t1 := e.clk.now()
	e.tr.end(sp)
	if err != nil {
		ls.failed++
	} else {
		ls.changes += int64(len(g.changes))
		ls.commits = append(ls.commits, t1-t0)
	}
	sp = e.tr.begin("ivm.read", id)
	r0 := e.clk.now()
	err = readRound(s, keys)
	ls.reads = append(ls.reads, e.clk.now()-r0)
	e.tr.end(sp)
	ls.attempted++
	if err != nil {
		ls.failed++
	}
}

// readSink keeps read results observable so reads are not elided.
var readSink float64

// readRound is one read round: Result, then Get on each key, per view.
func readRound(s *system, keys []readKey) error {
	var cur *ivm.Result
	curView := ""
	for _, k := range keys {
		if cur == nil || k.view != curView {
			r, err := s.result(k.view)
			if err != nil {
				return err
			}
			cur, curView = r, k.view
		}
		readSink += cur.Get(k.group)
	}
	return nil
}

// generator returns the next-transaction function over a window.
func generator(w *workload, win *window) func() (genTx, []readKey) {
	return func() (genTx, []readKey) {
		g := win.next()
		return g, w.reads(win, g)
	}
}

// result is the benchmark's output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// segments is how many independent segments a timed run splits into.
// Each has its own inputs (from a seed derived from the run's seed), its
// own set-up, output check and heap measurement, so a run averages over
// several data sets and set-up is measured several times.
const segments = 10

// segmentSeed derives the input seed of one segment of a run.
func segmentSeed(seed int64, i int) int64 { return seed*segments + int64(i) }

// segment is what one segment of a timed run measured.
type segment struct {
	ls      loopStats
	setup   float64 // seconds
	heapMiB float64
	err     error // the output check's verdict
}

// runTimed is the untraced run: segments that each set up, drive the
// closed loop for their share of the run, check their outputs and
// measure the heap; the metrics pool the segments.
func runTimed(w *workload, seed int64, seconds int, e *runEnv) (*result, error) {
	per := int64(seconds) * int64(time.Second) / segments
	res := &result{Correct: true}
	var all loopStats
	var setups, heaps []float64
	for i := 0; i < segments; i++ {
		sg, err := e.segment(w, segmentSeed(seed, i), per)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(os.Stderr, "segment %d: %d txs, %.0f tuples/s, set-up %.3fs\n",
			i, sg.ls.txs, float64(sg.ls.changes)/(float64(sg.ls.elapsed)/1e9), sg.setup)
		if sg.err != nil {
			fmt.Fprintf(os.Stderr, "segment %d: check failed: %v\n", i, sg.err)
			res.Correct = false
		}
		all.txs += sg.ls.txs
		all.changes += sg.ls.changes
		all.attempted += sg.ls.attempted
		all.failed += sg.ls.failed
		all.elapsed += sg.ls.elapsed
		all.commits = append(all.commits, sg.ls.commits...)
		all.reads = append(all.reads, sg.ls.reads...)
		setups = append(setups, sg.setup)
		heaps = append(heaps, sg.heapMiB)
	}
	res.Attempted, res.Failed = all.attempted, all.failed
	if all.failed > 0 {
		res.Correct = false
	}
	res.Metrics = map[string]metric{
		"maint_tuples_per_s": {float64(all.changes) / (float64(all.elapsed) / 1e9), "1/s"},
		"commit_p50_us":      {pct(all.commits, 50) / 1e3, "us"},
		"commit_p90_us":      {pct(all.commits, 90) / 1e3, "us"},
		"read_p50_us":        {pct(all.reads, 50) / 1e3, "us"},
		"read_p90_us":        {pct(all.reads, 90) / 1e3, "us"},
		"setup_s":            {median(setups), "s"},
		"heap_mib":           {median(heaps), "MiB"},
	}
	fmt.Fprintf(os.Stderr, "%s seed %d: %d txs, %d changes in %.2fs\n", w.name, seed, all.txs, all.changes, float64(all.elapsed)/1e9)
	return res, nil
}

// segment runs one segment of a timed run for dur nanoseconds.
func (e *runEnv) segment(w *workload, seed int64, dur int64) (segment, error) {
	var sg segment
	win := newWindow(w.spec, seed)
	e.subKeys = nil
	if w.subKeys != nil {
		e.subKeys = w.subKeys(seed)
	}
	s, err := e.setup(w, w.cfg, win.liveRows())
	if err != nil {
		return sg, err
	}
	sg.setup = float64(s.compileNs+s.warmNs) / 1e9
	runtime.GC()
	sg.ls = e.loop(s, generator(w, win), 0, e.clk.now()+dur)

	snap, err := s.snapshot()
	if err == nil {
		err = checkOracle(w, snap, win.liveRows())
	}
	if err == nil {
		err = checkFeeds(s, snap, sg.ls.txs)
	}
	var seq int64
	if err == nil && s.dir != "" {
		var st ivm.Stats
		st, err = s.stats()
		seq = st.Durability.Applied
	}

	// Live heap with the system, then without it; a durable system is
	// abandoned without Close, as a crash would leave it.
	withSys := liveHeap()
	dir := s.dir
	if dir == "" {
		if cerr := s.close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	s = nil
	without := liveHeap()
	runtime.KeepAlive(win)
	sg.heapMiB = (float64(withSys) - float64(without)) / (1 << 20)
	if err == nil && dir != "" {
		var re *system
		if re, _, err = checkReopen(w, dir, snap, seq, e); err == nil {
			err = re.release()
		}
	}
	sg.err = err
	return sg, nil
}

// liveHeap returns the live heap after a forced collection.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// pct returns the p-th percentile (nearest rank) of ns samples.
func pct(xs []int64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]int64(nil), xs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	k := int(math.Ceil(p/100*float64(len(s)))) - 1
	if k < 0 {
		k = 0
	}
	return float64(s[k])
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
