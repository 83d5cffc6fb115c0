package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"

	ivm "repro"
	"repro/internal/compile"
	"repro/internal/eval"
	"repro/internal/mring"
	inet "repro/internal/net"
	"repro/internal/store"
	"repro/internal/tpch"
)

// stream is a pre-generated transaction stream with its read keys, so
// every pass of the traced run replays identical input.
type stream struct {
	rows    map[string][]mring.Tuple // the initial window
	final   map[string][]mring.Tuple // the window after the last tx
	txs     []genTx
	reads   [][]readKey
	changes int64
	genNs   int64
}

func newStream(w *workload, spec windowSpec, seed int64, n int, clk *clock) *stream {
	win := newWindow(spec, seed)
	st := &stream{rows: win.liveRows()}
	t0 := clk.now()
	for i := 0; i < n; i++ {
		g := win.next()
		st.txs = append(st.txs, g)
		st.reads = append(st.reads, w.reads(win, g))
		st.changes += int64(len(g.changes))
	}
	st.genNs = clk.now() - t0
	st.final = win.liveRows()
	return st
}

func (st *stream) replay() func() (genTx, []readKey) {
	i := 0
	return func() (genTx, []readKey) {
		i++
		return st.txs[i-1], st.reads[i-1]
	}
}

// executor is the ladder's lowest rung: the compiled program run by
// compile.Executor directly, below the public API.
type executor struct {
	ex     *compile.Executor
	before eval.Stats
	perTx  []int64 // fold time of each transaction (ns)
}

func newExecutor(prog *compile.Program, rows map[string][]mring.Tuple) *executor {
	ex := compile.NewExecutor(prog)
	ex.InitFromBases(relations(rows))
	return &executor{ex: ex, before: ex.Stats}
}

// apply folds one transaction and adds its fold time.
func (x *executor) apply(g genTx, clk *clock) {
	tx := tableBatches(g)
	t0 := clk.now()
	if err := x.ex.ApplyTxCapture(tx, nil); err != nil {
		panic(err) // every table of the stream has a trigger
	}
	x.perTx = append(x.perTx, clk.now()-t0)
}

// stats returns the evaluation counters since the executor was warmed.
func (x *executor) stats() eval.Stats {
	s := x.ex.Stats
	s.Lookups -= x.before.Lookups
	s.Scans -= x.before.Scans
	s.Emits -= x.before.Emits
	s.IndexOps -= x.before.IndexOps
	return s
}

// tableBatches groups a generated transaction into per-table batches in
// first-touch order, as ivm.Tx does.
func tableBatches(g genTx) []compile.TableBatch {
	var out []compile.TableBatch
	idx := map[string]int{}
	for _, c := range g.changes {
		i, ok := idx[c.table]
		if !ok {
			i = len(out)
			idx[c.table] = i
			out = append(out, compile.TableBatch{Table: c.table, Batch: mring.NewRelation(tpch.Schemas[c.table])})
		}
		out[i].Batch.Add(c.row, c.mult)
	}
	return out
}

// runTraced is the per-layer run. Every pass replays the same
// fixed-length stream, so the counts it reports are exact for a seed.
// Passes that are compared run in lockstep, one transaction on each in
// turn, so drift in the machine's speed hits all of them alike.
func runTraced(w *workload, seed int64, e *runEnv, spanFile string) (*result, error) {
	m := map[string]metric{}
	put := func(name string, v float64, unit string) { m[name] = metric{v, unit} }
	if w.subKeys != nil {
		e.subKeys = w.subKeys(seed)
	}
	st := newStream(w, w.spec, seed, w.tracedTxs, e.clk)
	txs := float64(len(st.txs))
	tuples := float64(st.changes)
	tr := e.tr

	// Set-up split: compile (with opening the directory) and Warm.
	var comp, warm []float64
	for i := 0; i < 3; i++ {
		s, err := e.setup(w, w.cfg, st.rows)
		if err != nil {
			return nil, err
		}
		comp = append(comp, float64(s.compileNs)/1e6)
		warm = append(warm, float64(s.warmNs)/1e6)
		if err := s.release(); err != nil {
			return nil, err
		}
	}
	put("compile.compile_ms", median(comp), "ms")
	put("compile.warm_ms", median(warm), "ms")

	// Allocation and GC over one untraced pass of the workload.
	e.tr = nil
	s, err := e.setup(w, w.cfg, st.rows)
	if err != nil {
		return nil, err
	}
	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	ls := e.loop(s, st.replay(), len(st.txs), 0)
	runtime.ReadMemStats(&ms1)
	if err := s.release(); err != nil {
		return nil, err
	}
	if ls.failed > 0 {
		return nil, fmt.Errorf("untraced pass: %d of %d calls failed", ls.failed, ls.attempted)
	}
	put("runtime.alloc_bytes_per_tuple", float64(ms1.TotalAlloc-ms0.TotalAlloc)/tuples, "B")
	put("runtime.mallocs_per_tuple", float64(ms1.Mallocs-ms0.Mallocs)/tuples, "count")
	put("runtime.gc_pause_us_per_tx", float64(ms1.PauseTotalNs-ms0.PauseTotalNs)/1e3/txs, "us")

	// The workload's configuration traced, in lockstep with an untraced
	// twin for the tracing overhead.
	plainSys, err := e.setup(w, w.cfg, st.rows)
	if err != nil {
		return nil, err
	}
	e.tr = tr
	s, err = e.setup(w, w.cfg, st.rows)
	if err != nil {
		plainSys.release()
		return nil, err
	}
	before, err := s.stats()
	if err != nil {
		return nil, err
	}
	met0 := s.metrics()
	var traced, plain loopStats
	nextT, nextP := st.replay(), st.replay()
	for i := range st.txs {
		// Alternate which twin goes first (see ladder).
		for k := 0; k < 2; k++ {
			if (i+k)%2 == 0 {
				e.tr = nil
				e.step(plainSys, nextP, &plain)
			} else {
				e.tr = tr
				e.step(s, nextT, &traced)
			}
		}
	}
	// The tracing overhead compares each transaction's traced step with
	// its untraced twin's.
	overhead := make([]float64, len(st.txs))
	tracedFirst := make([]bool, len(st.txs))
	for i := range overhead {
		overhead[i] = float64(traced.steps[i])/float64(plain.steps[i]) - 1
		tracedFirst[i] = i%2 == 1
	}
	e.tr = nil
	if err := plainSys.release(); err != nil {
		return nil, err
	}
	after, err := s.stats()
	if err != nil {
		return nil, err
	}
	put("client.gen_us_per_tx", (float64(st.genNs)+float64(traced.gen))/1e3/txs, "us")
	put("ivm.tx_us_per_tx", float64(traced.txBuild)/1e3/txs, "us")
	put("client.trace_overhead_pct", balanced(overhead, tracedFirst)*100, "%")
	put("error_rate", float64(traced.failed+plain.failed)/float64(traced.attempted+plain.attempted), "ratio")
	put("eval.scans_per_tuple", float64(after.Scans-before.Scans)/tuples, "count")
	put("eval.lookups_per_tuple", float64(after.Lookups-before.Lookups)/tuples, "count")
	put("eval.emits_per_tuple", float64(after.Emits-before.Emits)/tuples, "count")
	put("eval.emits_per_scan", ratio(float64(after.Emits-before.Emits), float64(after.Scans-before.Scans)), "ratio")
	probes, maint := indexTotals(after)
	p0, m0 := indexTotals(before)
	put("mring.index_probes_per_tuple", float64(probes-p0)/tuples, "count")
	put("mring.index_maintains_per_tuple", float64(maint-m0)/tuples, "count")
	met := s.metrics()
	put("cluster.shuffled_bytes_per_tuple", float64(met.ShuffledBytes-met0.ShuffledBytes)/tuples, "B")
	put("cluster.max_worker_shuffle_bytes", float64(met.MaxWorkerShuffleBytes), "B")
	put("cluster.stages_per_tx", float64(met.Stages-met0.Stages)/txs, "count")
	put("cluster.compute_max_us_per_tx", float64(met.ComputeMax-met0.ComputeMax)/1e3/txs, "us")
	put("cluster.compute_imbalance", imbalance(before.Workers, after.Workers), "ratio")

	// The traced pass's outputs are checked like a timed run's.
	cerr := e.checkTraced(w, s, st, traced, m)
	spans := tr.spans

	prog, err := ladderProgram(w, e)
	if err != nil {
		return nil, err
	}
	put("compile.indexes", float64(len(prog.Indexes)), "count")
	lr, err := e.ladder(w, st, prog)
	if err != nil {
		return nil, err
	}
	bare, subs := config{}.String(), config{subs: true}.String()
	put("compile.fold_us_per_tuple", float64(sum(lr.times["executor"]))/1e3/tuples, "us")
	put("ivm.self_us_per_tx", lr.rungDiff(bare, "executor"), "us")
	put("ivm.feed_us_per_tx", lr.rungDiff(subs, bare), "us")
	put("ivm.feed_lag_p50_us", lr.lagP50, "us")
	put("ivm.feed_groups_per_tx", lr.groups/txs, "count")
	put("mring.state_tuples", float64(lr.state), "count")
	put("store.bytes_per_tuple", float64(lr.walBytes)/tuples, "B")
	put("store.syncs_per_tx", float64(lr.walSyncs)/txs, "count")
	put("store.wal_us_per_tx", lr.rungDiff(config{subs: true, wal: walFsync}.String(), subs), "us")
	put("store.wal_nofsync_us_per_tx", lr.rungDiff(config{subs: true, wal: walNoFsync}.String(), subs), "us")
	put("cluster.us_per_tx", lr.rungDiff(config{workers: 2}.String(), bare), "us")

	// State scaling: the same transactions' work over a 4x window, in
	// lockstep with the 1x window.
	n4 := (len(st.txs) + 1) / 2
	st4 := newStream(w, w.spec.scaled(4), seed, n4, e.clk)
	x1, x4 := newExecutor(prog, st.rows), newExecutor(prog, st4.rows)
	var ch1 int64
	for i := 0; i < n4; i++ {
		x1.apply(st.txs[i], e.clk)
		x4.apply(st4.txs[i], e.clk)
		ch1 += int64(len(st.txs[i].changes))
	}
	per := func(v int64, n int64) float64 { return float64(v) / float64(n) }
	put("compile.fold_growth_4x", per(sum(x4.perTx), st4.changes)/per(sum(x1.perTx), ch1), "ratio")
	put("eval.scan_growth_4x", ratio(per(x4.stats().Scans, st4.changes), per(x1.stats().Scans, ch1)), "ratio")

	// The codecs under WAL records and shuffles, timed directly.
	if err := e.codecs(w, st, m); err != nil {
		return nil, err
	}
	if err := writeSpans(spanFile, spans, txs); err != nil {
		return nil, err
	}
	if cerr != nil {
		fmt.Fprintln(os.Stderr, "check failed:", cerr)
	}
	return &result{Correct: cerr == nil, Attempted: traced.attempted + plain.attempted, Failed: traced.failed + plain.failed, Metrics: m}, nil
}

// checkTraced checks the traced pass's outputs and, on a durable
// workload, times checkpoint and recovery on its directory.
func (e *runEnv) checkTraced(w *workload, s *system, st *stream, ls loopStats, m map[string]metric) error {
	m["store.recover_ms"] = metric{0, "ms"}
	m["store.replayed_records"] = metric{0, "count"}
	m["store.checkpoint_ms"] = metric{0, "ms"}
	snap, err := s.snapshot()
	if err == nil {
		err = checkOracle(w, snap, st.final)
	}
	if err == nil {
		err = checkFeeds(s, snap, ls.txs)
	}
	if err != nil || s.dir == "" {
		if rerr := s.release(); err == nil {
			err = rerr
		}
		return err
	}
	stt, err := s.stats()
	if err != nil {
		return err
	}
	// Abandon the directory without Close, as a crash would, and reopen.
	re, took, err := checkReopen(w, s.dir, snap, stt.Durability.Applied, e)
	if err != nil {
		return err
	}
	defer re.release()
	rst, err := re.stats()
	if err != nil {
		return err
	}
	m["store.recover_ms"] = metric{float64(took) / 1e6, "ms"}
	m["store.replayed_records"] = metric{float64(rst.Durability.Recovery.ReplayedRecords), "count"}
	var cks []float64
	for i := 0; i < 3; i++ {
		t0 := e.clk.now()
		if err := re.checkpoint(); err != nil {
			return err
		}
		cks = append(cks, float64(e.clk.now()-t0)/1e6)
	}
	m["store.checkpoint_ms"] = metric{median(cks), "ms"}
	return nil
}

// ladderProgram compiles the workload's views once, for the executor
// rungs.
func ladderProgram(w *workload, e *runEnv) (*compile.Program, error) {
	s, err := build(w, config{}, "", e)
	if err != nil {
		return nil, err
	}
	defer s.close()
	return s.program()
}

// ladderResult is what the layer ladder measured.
type ladderResult struct {
	// times holds each rung's apply time per transaction (ns), and pos
	// its place in that transaction's running order, keyed by config
	// name ("executor" for the lowest rung).
	times map[string][]int64
	pos   map[string][]int
	// lagP50 (µs) and groups are the local subscriber rung's feed lag
	// median and delivered groups.
	lagP50, groups float64
	// state is the executor's state size afterwards.
	state int
	// walBytes and walSyncs are what the WAL rung with the default fsync
	// policy appended and synced over the stream.
	walBytes, walSyncs int64
}

// ladder runs the executor rung and every configured rung in lockstep
// over the stream.
func (e *runEnv) ladder(w *workload, st *stream, prog *compile.Program) (*ladderResult, error) {
	x := newExecutor(prog, st.rows)
	sys := make([]*system, 0, len(w.ladder))
	defer func() {
		for _, s := range sys {
			s.release()
		}
	}()
	var before []ivm.Stats
	for _, cfg := range w.ladder {
		s, err := e.setup(w, cfg, st.rows)
		if err != nil {
			return nil, err
		}
		sys = append(sys, s)
		stt, err := s.stats()
		if err != nil {
			return nil, err
		}
		before = append(before, stt)
	}
	lr := &ladderResult{times: map[string][]int64{}, pos: map[string][]int{}}
	for n, g := range st.txs {
		// Rotate which rung goes first: the first to touch a
		// transaction's rows pays their cache misses.
		for k := 0; k <= len(sys); k++ {
			i := (n + k) % (len(sys) + 1)
			if i == len(sys) {
				x.apply(g, e.clk)
				lr.pos["executor"] = append(lr.pos["executor"], k)
				continue
			}
			s := sys[i]
			tx, err := s.txOf(g)
			if err != nil {
				return nil, err
			}
			t0 := e.clk.now()
			s.lastApply = t0
			err = s.apply(tx)
			name := w.ladder[i].String()
			lr.times[name] = append(lr.times[name], e.clk.now()-t0)
			lr.pos[name] = append(lr.pos[name], k)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", name, err)
			}
		}
	}
	lr.times["executor"] = x.perTx
	lr.state = x.ex.MemoryFootprint()
	for i, cfg := range w.ladder {
		switch cfg {
		case config{subs: true}:
			lr.lagP50, lr.groups = pct(sys[i].lags, 50)/1e3, float64(sys[i].groups)
		case config{subs: true, wal: walFsync}:
			stt, err := sys[i].stats()
			if err != nil {
				return nil, err
			}
			lr.walBytes = stt.Durability.Bytes - before[i].Durability.Bytes
			lr.walSyncs = stt.Durability.Syncs - before[i].Durability.Syncs
		}
	}
	return lr, nil
}

// rungDiff is rung a's apply time minus rung b's per transaction, in
// µs; 0 when the workload's ladder lacks either rung.
func (lr *ladderResult) rungDiff(a, b string) float64 {
	ra, rb := lr.times[a], lr.times[b]
	if ra == nil || rb == nil {
		return 0
	}
	d := make([]float64, len(ra))
	aFirst := make([]bool, len(ra))
	for i := range ra {
		d[i] = float64(ra[i] - rb[i])
		aFirst[i] = lr.pos[a][i] < lr.pos[b][i]
	}
	return balanced(d, aFirst) / 1e3
}

// balanced is the mean of two medians of per-transaction comparisons:
// over the transactions where the first side ran first, and over those
// where it ran second. Running second on the same rows is faster (warm
// caches), so a plain median of a comparison whose sides alternate
// would land anywhere between the two clusters.
func balanced(d []float64, first []bool) float64 {
	var a, b []float64
	for i, v := range d {
		if first[i] {
			a = append(a, v)
		} else {
			b = append(b, v)
		}
	}
	if len(a) == 0 || len(b) == 0 {
		return median(d)
	}
	return (median(a) + median(b)) / 2
}

// codecs times the payload codec and the WAL store directly on the
// stream's batches: net encode/decode on every workload, and record
// encode, append and sync on durable ones.
func (e *runEnv) codecs(w *workload, st *stream, m map[string]metric) error {
	txs := float64(len(st.txs))
	var enc, dec, bytes int64
	var recs []store.Record
	for _, g := range st.txs {
		rec := store.Record{Kind: store.RecTx}
		for _, tb := range tableBatches(g) {
			t0 := e.clk.now()
			p := inet.EncodeRelationPlain(tb.Batch)
			t1 := e.clk.now()
			if _, err := inet.DecodePayload(p); err != nil {
				return fmt.Errorf("decode payload: %w", err)
			}
			dec += e.clk.now() - t1
			enc += t1 - t0
			bytes += int64(len(p))
			rec.Tables = append(rec.Tables, store.TableFrag{Table: tb.Table, Buckets: tb.Batch.TableSize(), Payload: p})
		}
		recs = append(recs, rec)
	}
	m["net.encode_us_per_tx"] = metric{float64(enc) / 1e3 / txs, "us"}
	m["net.decode_us_per_tx"] = metric{float64(dec) / 1e3 / txs, "us"}
	m["net.payload_bytes_per_tuple"] = metric{float64(bytes) / float64(st.changes), "B"}
	var recEnc, app, syn int64
	if w.cfg.wal != noWAL {
		st, _, err := store.Open(e.scratchDir(), store.Options{SyncEvery: -1})
		if err != nil {
			return fmt.Errorf("open store: %w", err)
		}
		for _, r := range recs {
			t0 := e.clk.now()
			_ = store.EncodeRecord(r)
			t1 := e.clk.now()
			err := st.Append(r)
			t2 := e.clk.now()
			if err == nil {
				err = st.Sync()
			}
			t3 := e.clk.now()
			if err != nil {
				st.Close()
				return fmt.Errorf("store: %w", err)
			}
			recEnc, app, syn = recEnc+t1-t0, app+t2-t1, syn+t3-t2
		}
		if err := st.Close(); err != nil {
			return fmt.Errorf("close store: %w", err)
		}
	}
	m["store.encode_us_per_tx"] = metric{float64(recEnc) / 1e3 / txs, "us"}
	m["store.append_us_per_tx"] = metric{float64(app) / 1e3 / txs, "us"}
	m["store.sync_us_per_tx"] = metric{float64(syn) / 1e3 / txs, "us"}
	return nil
}

func indexTotals(s ivm.Stats) (probes, maint int64) {
	for _, ix := range s.Indexes {
		probes += ix.Probes
		maint += ix.Maintains
	}
	return probes, maint
}

// imbalance is max over mean of the per-worker compute the pass added
// (0 on the local backend).
func imbalance(before, after []ivm.WorkerTiming) float64 {
	if len(after) == 0 {
		return 0
	}
	var sum, max float64
	for i, wt := range after {
		c := float64(wt.Compute)
		if i < len(before) {
			c -= float64(before[i].Compute)
		}
		sum += c
		if c > max {
			max = c
		}
	}
	return ratio(max, sum/float64(len(after)))
}

func sum(xs []int64) int64 {
	var n int64
	for _, x := range xs {
		n += x
	}
	return n
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// writeSpans writes the traced pass's spans and each span name's mean
// self time per transaction: a span's duration minus the time its
// direct children cover.
func writeSpans(path string, spans []span, txs float64) error {
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] += s.End - s.Start
		if s.Parent >= 0 {
			self[s.Parent] -= s.End - s.Start
		}
	}
	perName := map[string]float64{}
	for i, s := range spans {
		if s.Tx > 0 {
			perName[s.Name] += float64(self[i]) / 1e3 / txs
		}
	}
	names := make([]string, 0, len(perName))
	for k := range perName {
		names = append(names, k)
	}
	sort.Strings(names)
	type row struct {
		Name string  `json:"name"`
		Self float64 `json:"self_us_per_tx"`
	}
	out := struct {
		Self  []row  `json:"self"`
		Spans []span `json:"spans"`
	}{Spans: spans}
	for _, k := range names {
		out.Self = append(out.Self, row{k, perName[k]})
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
