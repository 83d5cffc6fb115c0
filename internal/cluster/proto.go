package cluster

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"time"

	"repro/internal/dist"
	"repro/internal/eval"
	"repro/internal/expr"
	"repro/internal/mring"
	inet "repro/internal/net"
	"repro/internal/pool"
)

// The driver/worker protocol: one frame type byte per worker operation,
// gob request/response bodies, relation data as internal/net payloads
// (never gob — row order is load-bearing). Each worker connection
// carries strictly sequential request/response pairs; the driver fans
// out across workers concurrently.
//
// This file is the only place that knows the wire format: the remote
// stub below encodes each worker call, and Shard.Handle decodes it and
// calls the same Shard method the in-process driver calls directly.
// Relations cross the wire layout-exact (rows in Foreach order plus the
// bucket-table size), so the remote shard holds bitwise what the
// in-process shard would hold by reference.
//
// DESIGN.md §11 documents the protocol; change both together.
const (
	// opSetup tells the worker the worker count. Sent once, first, per
	// driver session.
	opSetup byte = 1
	// opRunBlock executes one distributed block's statements over the
	// shard's fragments, optionally capturing per-view change sinks.
	opRunBlock byte = 2
	// opInstallScatter clears the target fragment and installs a shipped
	// fragment (keyed scatter fragment, or a broadcast replica).
	opInstallScatter byte = 3
	// opInstallRepart rebuilds the target fragment from per-sender
	// pieces merged in worker-index order.
	opInstallRepart byte = 4
	// opInstallDelta replaces a relation with a shipped one (update-batch
	// fragments, warm loads).
	opInstallDelta byte = 5
	// opPartitionOut splits a shard fragment by key and returns the
	// per-destination pieces.
	opPartitionOut byte = 6
	// opFetch returns a shard fragment's contents (gather, view reads).
	opFetch byte = 7
	// opSnapshot returns every fragment the shard holds, with bucket-table
	// sizes, for a durability checkpoint.
	opSnapshot byte = 8
	// opRestore replaces the shard's entire state with checkpoint
	// fragments, rebuilt layout-exact (worker re-warm during recovery).
	opRestore byte = 9
	// opDrop deletes every relation not named in the keep set (the
	// worker half of a repartition).
	opDrop byte = 10

	// opOK carries a gob response body; opErr carries an error string.
	opOK  byte = 64
	opErr byte = 65
)

// ack is the body of requests and responses that carry nothing.
type ack struct{}

type setupReq struct {
	Index   int
	Workers int
}

type runBlockReq struct {
	// Stmts is the block's statement sequence; the shard executes it in
	// order against its own fragments.
	Stmts []dist.Stmt
	// Schemas is the driver's schema map after prepareStmts — every
	// schema the statements may bind, resolved on the driver so shards
	// never register schemas themselves.
	Schemas map[string]mring.Schema
	// Watch names the watched worker-maintained views this block writes.
	Watch []string
}

type runBlockResp struct {
	Stats     eval.Stats
	ComputeNs int64
	// Sinks holds each watched view's non-empty change sink.
	Sinks map[string]Frag
}

type installScatterReq struct {
	Name   string
	Schema mring.Schema
	// Frag is the fragment to install (zero for none: the target is
	// still cleared and the replacement still captured). Columnar, when
	// set, replaces it with the driver's columnar batch, which becomes
	// the installed fragment's mirror.
	Frag     Frag
	Columnar []byte
	Capture  bool
}

// installResp carries a captured replacement: the fragment after (Cur)
// and before (Old) the install. Zero without capture.
type installResp struct {
	Cur Frag
	Old Frag
}

type installRepartReq struct {
	Name      string
	SrcSchema mring.Schema
	LHSSchema mring.Schema
	// Pieces holds the non-empty pieces addressed to this shard, in
	// sender-index order.
	Pieces  []Frag
	Capture bool
}

type installDeltaReq struct {
	Name string
	// Frag is the relation to install; zero installs an empty one.
	Frag Frag
}

type partitionOutReq struct {
	Src    string
	Schema mring.Schema
	KeyPos []int
}

type partitionOutResp struct {
	// Pieces holds one fragment per destination worker; zero entries
	// mark empty pieces.
	Pieces []Frag
}

type fetchReq struct {
	Name string
}

type fetchResp struct {
	// Present reports whether the shard holds the relation at all (view
	// reads distinguish an absent replica from an empty one).
	Present bool
	Frag    Frag
}

type snapshotResp struct {
	// Frags holds every restorable fragment on the shard (contents plus
	// bucket-table size; empty-but-sized relations included, since
	// retained capacity shapes future layout).
	Frags map[string]Frag
}

type restoreReq struct {
	Frags map[string]Frag
}

type dropReq struct {
	Keep map[string]bool
}

func init() {
	// The statement AST crosses the wire inside runBlockReq; register
	// every concrete node behind the expr.Expr / expr.VExpr interfaces.
	gob.Register(&expr.Rel{})
	gob.Register(&expr.Plus{})
	gob.Register(&expr.Mul{})
	gob.Register(&expr.Agg{})
	gob.Register(&expr.Const{})
	gob.Register(&expr.Val{})
	gob.Register(&expr.Cmp{})
	gob.Register(&expr.Assign{})
	gob.Register(&expr.Exists{})
	gob.Register(&dist.Xform{})
	gob.Register(expr.VarRef{})
	gob.Register(expr.Lit{})
	gob.Register(expr.Arith{})
}

// shipRel encodes a relation layout-exact; nil ships as the zero Frag.
func shipRel(r *mring.Relation) Frag {
	if r == nil {
		return Frag{}
	}
	return snapFrag(r)
}

// landRel rebuilds a shipped relation with the sender's exact layout
// (same bucket table, same Foreach order). The zero Frag — a nil or
// never-filled relation — lands as nil.
func landRel(f Frag) (*mring.Relation, error) {
	if f.Buckets == 0 && len(f.Payload) == 0 {
		return nil, nil
	}
	r := mring.NewRelation(f.Schema)
	if err := inet.RestoreIntoExact(r, f.Payload, f.Buckets); err != nil {
		return nil, fmt.Errorf("cluster: shipped fragment: %w", err)
	}
	return r, nil
}

// Connect dials the worker processes at addrs over tr and assigns each
// its index. The schemas map is shared with the caller and mutated by
// lazy registration, exactly as with New. The cluster charges measured
// wall time: there is no virtual cost model for a real deployment.
func Connect(tr inet.Transport, addrs []string, schemas map[string]mring.Schema, parts dist.PartInfo) (*Cluster, error) {
	if len(addrs) == 0 {
		return nil, errors.New("cluster: no worker addresses")
	}
	workers := make([]worker, 0, len(addrs))
	fail := func(err error) (*Cluster, error) {
		for _, w := range workers {
			w.close()
		}
		return nil, err
	}
	for i, a := range addrs {
		conn, err := tr.Dial(a)
		if err != nil {
			return fail(fmt.Errorf("cluster: dial worker %s: %w", a, err))
		}
		workers = append(workers, &remote{conn: conn})
		if err := call(conn, opSetup, &setupReq{Index: i, Workers: len(addrs)}, &ack{}); err != nil {
			return fail(fmt.Errorf("cluster: worker setup: %w", err))
		}
	}
	return newCluster(nil, workers, true, schemas, parts), nil
}

// remote is a worker in another process, reached over one framed
// connection: every call is one request/response round trip that the
// peer's Shard.Handle serves.
type remote struct {
	conn inet.Conn
}

func (r *remote) runBlock(stmts []dist.Stmt, schemas map[string]mring.Schema, watch []string) (blockResult, error) {
	var resp runBlockResp
	if err := call(r.conn, opRunBlock, &runBlockReq{Stmts: stmts, Schemas: schemas, Watch: watch}, &resp); err != nil {
		return blockResult{}, err
	}
	res := blockResult{stats: resp.Stats, compute: time.Duration(resp.ComputeNs)}
	for name, f := range resp.Sinks {
		s, err := landRel(f)
		if err != nil {
			return blockResult{}, err
		}
		if res.sinks == nil {
			res.sinks = make(map[string]*mring.Relation, len(resp.Sinks))
		}
		res.sinks[name] = s
	}
	return res, nil
}

func (r *remote) installScatter(name string, schema mring.Schema, frag *mring.Relation, batch *pool.ColBatch, capture bool) (replaced, error) {
	req := &installScatterReq{Name: name, Schema: schema, Capture: capture}
	if batch != nil {
		req.Columnar = inet.EncodePayload(frag, batch)
	} else {
		req.Frag = shipRel(frag)
	}
	var resp installResp
	if err := call(r.conn, opInstallScatter, req, &resp); err != nil {
		return replaced{}, err
	}
	return landReplaced(&resp)
}

func (r *remote) installRepart(name string, srcSchema, lhsSchema mring.Schema, pieces []*mring.Relation, capture bool) (replaced, error) {
	req := &installRepartReq{Name: name, SrcSchema: srcSchema, LHSSchema: lhsSchema, Pieces: make([]Frag, len(pieces)), Capture: capture}
	for i, p := range pieces {
		req.Pieces[i] = shipRel(p)
	}
	var resp installResp
	if err := call(r.conn, opInstallRepart, req, &resp); err != nil {
		return replaced{}, err
	}
	return landReplaced(&resp)
}

// landReplaced lands a captured replacement (zero Frags land as nil).
func landReplaced(resp *installResp) (replaced, error) {
	cur, err := landRel(resp.Cur)
	if err != nil {
		return replaced{}, err
	}
	old, err := landRel(resp.Old)
	if err != nil {
		return replaced{}, err
	}
	return replaced{old: old, cur: cur}, nil
}

func (r *remote) installDelta(name string, rel *mring.Relation) error {
	return call(r.conn, opInstallDelta, &installDeltaReq{Name: name, Frag: shipRel(rel)}, &ack{})
}

func (r *remote) partitionOut(src string, schema mring.Schema, keyPos []int) ([]*mring.Relation, error) {
	var resp partitionOutResp
	if err := call(r.conn, opPartitionOut, &partitionOutReq{Src: src, Schema: schema, KeyPos: keyPos}, &resp); err != nil {
		return nil, err
	}
	out := make([]*mring.Relation, len(resp.Pieces))
	for i, f := range resp.Pieces {
		p, err := landRel(f)
		if err != nil {
			return nil, err
		}
		out[i] = p
	}
	return out, nil
}

func (r *remote) fetch(name string) (*mring.Relation, error) {
	var resp fetchResp
	if err := call(r.conn, opFetch, &fetchReq{Name: name}, &resp); err != nil {
		return nil, err
	}
	if !resp.Present {
		return nil, nil
	}
	rel, err := landRel(resp.Frag)
	if err == nil && rel == nil {
		rel = mring.NewRelation(resp.Frag.Schema)
	}
	return rel, err
}

func (r *remote) snapshot() (map[string]Frag, error) {
	var resp snapshotResp
	if err := call(r.conn, opSnapshot, &ack{}, &resp); err != nil {
		return nil, err
	}
	if resp.Frags == nil {
		resp.Frags = map[string]Frag{}
	}
	return resp.Frags, nil
}

func (r *remote) restore(rels map[string]*mring.Relation) error {
	return call(r.conn, opRestore, &restoreReq{Frags: snapRels(rels, nil)}, &ack{})
}

func (r *remote) drop(keep map[string]bool) error {
	return call(r.conn, opDrop, &dropReq{Keep: keep}, &ack{})
}

// relations visits nothing: a remote shard's fragments live in its own
// process (DESIGN.md §11).
func (*remote) relations(func(string, *mring.Relation)) {}

func (r *remote) close() error { return r.conn.Close() }

// Handle serves one protocol request: it decodes the request, calls the
// Shard method the in-process driver would call directly, and returns
// the encodable response. Malformed or hostile requests return errors —
// relation data goes through the hardened internal/net decoders, and
// ServeConn converts any handler panic into an error response.
func (sh *Shard) Handle(op byte, body []byte) (any, error) {
	if op == opSetup {
		return serve(body, func(req *setupReq) (any, error) {
			if req.Workers < 1 || req.Index < 0 || req.Index >= req.Workers {
				return nil, fmt.Errorf("cluster: bad setup index %d of %d workers", req.Index, req.Workers)
			}
			sh.workers = req.Workers
			return ack{}, nil
		})
	}
	if sh.workers < 1 {
		return nil, errors.New("cluster: shard not set up")
	}
	switch op {
	case opRunBlock:
		return serve(body, sh.serveRunBlock)
	case opInstallScatter:
		return serve(body, sh.serveInstallScatter)
	case opInstallRepart:
		return serve(body, func(req *installRepartReq) (any, error) {
			pieces := make([]*mring.Relation, 0, len(req.Pieces))
			for _, f := range req.Pieces {
				p, err := landRel(f)
				if err != nil {
					return nil, err
				}
				if p != nil {
					pieces = append(pieces, p)
				}
			}
			return shipReplaced(sh.installRepart(req.Name, req.SrcSchema, req.LHSSchema, pieces, req.Capture))
		})
	case opInstallDelta:
		return serve(body, func(req *installDeltaReq) (any, error) {
			r, err := landRel(req.Frag)
			if err != nil {
				return nil, err
			}
			return ack{}, sh.installDelta(req.Name, r)
		})
	case opPartitionOut:
		return serve(body, func(req *partitionOutReq) (any, error) {
			for _, p := range req.KeyPos {
				if p < 0 || p >= len(req.Schema) {
					return nil, fmt.Errorf("cluster: key position %d outside schema %v", p, req.Schema)
				}
			}
			pieces, err := sh.partitionOut(req.Src, req.Schema, req.KeyPos)
			if err != nil {
				return nil, err
			}
			resp := &partitionOutResp{Pieces: make([]Frag, len(pieces))}
			for i, p := range pieces {
				resp.Pieces[i] = shipRel(p)
			}
			return resp, nil
		})
	case opFetch:
		return serve(body, func(req *fetchReq) (any, error) {
			r, err := sh.fetch(req.Name)
			if err != nil || r == nil {
				return &fetchResp{}, err
			}
			return &fetchResp{Present: true, Frag: shipRel(r)}, nil
		})
	case opSnapshot:
		return serve(body, func(*ack) (any, error) {
			frags, err := sh.snapshot()
			return &snapshotResp{Frags: frags}, err
		})
	case opRestore:
		return serve(body, func(req *restoreReq) (any, error) {
			// Every fragment validates before any state is touched, so a
			// corrupt checkpoint never leaves the shard half-restored.
			rels, err := restoreFrags(req.Frags)
			if err != nil {
				return nil, err
			}
			return ack{}, sh.restore(rels)
		})
	case opDrop:
		return serve(body, func(req *dropReq) (any, error) { return ack{}, sh.drop(req.Keep) })
	default:
		return nil, fmt.Errorf("cluster: unknown op %d", op)
	}
}

// serve decodes one request body and hands it to its handler.
func serve[Req any](body []byte, handle func(*Req) (any, error)) (any, error) {
	var req Req
	if err := decodeMsg(body, &req); err != nil {
		return nil, err
	}
	return handle(&req)
}

func (sh *Shard) serveRunBlock(req *runBlockReq) (any, error) {
	for _, name := range req.Watch {
		if _, ok := req.Schemas[name]; !ok {
			return nil, fmt.Errorf("cluster: watch of %q without schema", name)
		}
	}
	for _, s := range req.Stmts {
		if _, ok := req.Schemas[s.LHS]; !ok {
			return nil, fmt.Errorf("cluster: statement target %q without schema", s.LHS)
		}
	}
	res, err := sh.runBlock(req.Stmts, req.Schemas, req.Watch)
	if err != nil {
		return nil, err
	}
	resp := &runBlockResp{Stats: res.stats, ComputeNs: res.compute.Nanoseconds()}
	for name, sink := range res.sinks {
		if sink.Len() == 0 {
			continue
		}
		if resp.Sinks == nil {
			resp.Sinks = make(map[string]Frag, len(res.sinks))
		}
		resp.Sinks[name] = shipRel(sink)
	}
	return resp, nil
}

func (sh *Shard) serveInstallScatter(req *installScatterReq) (any, error) {
	if len(req.Columnar) == 0 {
		frag, err := landRel(req.Frag)
		if err != nil {
			return nil, err
		}
		return shipReplaced(sh.installScatter(req.Name, req.Schema, frag, nil, req.Capture))
	}
	p, err := inet.DecodePayload(req.Columnar)
	if err != nil {
		return nil, fmt.Errorf("cluster: scatter payload for %q: %w", req.Name, err)
	}
	if p.Batch == nil {
		return nil, fmt.Errorf("cluster: scatter payload for %q is not columnar", req.Name)
	}
	return shipReplaced(sh.installScatter(req.Name, req.Schema, nil, p.Batch, req.Capture))
}

// shipReplaced encodes a captured replacement for the wire.
func shipReplaced(rep replaced, err error) (any, error) {
	if err != nil {
		return nil, err
	}
	return &installResp{Cur: shipRel(rep.cur), Old: shipRel(rep.old)}, nil
}

// encodeMsg gob-encodes one protocol message body. Each message is a
// self-contained gob stream, so decoding needs no per-connection state.
func encodeMsg(v any) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func decodeMsg(body []byte, v any) error {
	return gob.NewDecoder(bytes.NewReader(body)).Decode(v)
}

// call runs one request/response round trip on a worker connection.
func call(c inet.Conn, op byte, req, resp any) error {
	body, err := encodeMsg(req)
	if err != nil {
		return fmt.Errorf("cluster: encode op %d: %w", op, err)
	}
	if err := c.Send(op, body); err != nil {
		return err
	}
	typ, rbody, err := c.Recv()
	if err != nil {
		return err
	}
	switch typ {
	case opOK:
		if resp == nil {
			return nil
		}
		if err := decodeMsg(rbody, resp); err != nil {
			return fmt.Errorf("cluster: decode response to op %d: %w", op, err)
		}
		return nil
	case opErr:
		return fmt.Errorf("cluster: worker error: %s", rbody)
	default:
		return fmt.Errorf("cluster: unexpected response frame type %d", typ)
	}
}
