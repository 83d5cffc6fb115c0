package cluster

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"time"

	"repro/internal/dist"
	"repro/internal/mring"
	inet "repro/internal/net"
)

// Checkpoint is a serialized snapshot of the cluster's materialized state
// (Sec. 4: "Using data checkpointing, we can periodically save
// intermediate state to reliable storage (HDFS) in order to shorten
// recovery time"). The snapshot stores every node's relation fragments
// in the lossless wire payload format (columnar when a relation's
// columns are kind-pure, tagged rows otherwise — the earlier
// columnar-only encoding silently dropped mixed-kind columns, so a
// restore of such a view produced garbage); its size approximates the
// HDFS write.
//
// Each fragment also records the relation's bucket-table size, so
// Restore rebuilds the exact physical layout (same chains, same Foreach
// enumeration order) via inet.RestoreIntoExact. Layout exactness is what
// lets a recovered engine keep producing bitwise-identical float folds:
// every later maintenance statement enumerates restored state in the
// same order the never-crashed engine would have.
type Checkpoint struct {
	// Workers holds, per worker, the encoded fragments by name.
	Workers []map[string]Frag
	// Driver holds the driver's relations.
	Driver map[string]Frag
	// Parts records the placement the fragments were captured under, so
	// a restore re-deploys against the same partitioning even when a
	// skew-feedback repartition had moved it off the compile-time
	// default. Nil on legacy checkpoints (which predate repartitioning
	// surviving recovery) and on single-node snapshots.
	Parts dist.PartInfo
	// Bytes is the total snapshot size.
	Bytes int64
}

// Frag is one relation in layout-exact serialized form — a checkpoint
// fragment, and the form relations take on the worker wire: its schema
// (payloads of empty relations are nil and carry none), its bucket-table
// size (0 when the relation never allocated one), and its rows in
// Foreach order.
type Frag struct {
	Schema  mring.Schema
	Buckets int
	Payload []byte
}

// snapFrag encodes one relation. Empty relations with allocated tables
// still snapshot (capacity shapes future layout); nil/never-touched ones
// are skipped by callers.
func snapFrag(r *mring.Relation) Frag {
	return Frag{Schema: r.Schema().Clone(), Buckets: r.TableSize(), Payload: inet.EncodeRelationPlain(r)}
}

// worthSnapshot reports whether a relation carries restorable state.
func worthSnapshot(r *mring.Relation) bool {
	return r != nil && (r.Len() > 0 || r.TableSize() > 0)
}

// restoreFrag rebuilds a relation exactly. Legacy fragments (Buckets 0
// with rows, from pre-versioned checkpoints) rebuild contents in wire
// order without the layout guarantee.
func restoreFrag(name string, f Frag) (*mring.Relation, error) {
	if f.Buckets == 0 && len(f.Payload) > 0 {
		p, err := inet.DecodePayload(f.Payload)
		if err != nil {
			return nil, fmt.Errorf("cluster: corrupt checkpoint for %q: %w", name, err)
		}
		r := mring.NewRelation(p.Schema)
		p.Foreach(r.Add)
		return r, nil
	}
	r, err := inet.RestoreRelationExact(f.Payload, f.Buckets, f.Schema)
	if err != nil {
		return nil, fmt.Errorf("cluster: corrupt checkpoint for %q: %w", name, err)
	}
	return r, nil
}

// snapRels encodes every restorable relation in rels, adding the payload
// sizes to *bytes when bytes is non-nil.
func snapRels(rels map[string]*mring.Relation, bytes *int64) map[string]Frag {
	out := make(map[string]Frag, len(rels))
	for name, r := range rels {
		if !worthSnapshot(r) {
			continue
		}
		f := snapFrag(r)
		out[name] = f
		if bytes != nil {
			*bytes += int64(len(f.Payload))
		}
	}
	return out
}

// restoreFrags rebuilds every fragment of one node, failing on the first
// corrupt one.
func restoreFrags(enc map[string]Frag) (map[string]*mring.Relation, error) {
	out := make(map[string]*mring.Relation, len(enc))
	for name, f := range enc {
		r, err := restoreFrag(name, f)
		if err != nil {
			return nil, err
		}
		out[name] = r
	}
	return out, nil
}

// CheckpointCost models the virtual time to write the snapshot, charged
// against the same bandwidth as shuffles (the paper notes checkpointing
// "may have detrimental effects on the latency of processing"). Zero on
// a cluster without a cost model (Connect).
func (c *Cluster) CheckpointCost(cp *Checkpoint) time.Duration {
	if c.cfg == nil {
		return 0
	}
	perWorker := int64(0)
	for _, w := range cp.Workers {
		var n int64
		for _, b := range w {
			n += int64(len(b.Payload))
		}
		if n > perWorker {
			perWorker = n
		}
	}
	return c.cfg.NetLatency +
		time.Duration(float64(perWorker)/c.cfg.BandwidthBytesPerSec*float64(time.Second))
}

// Checkpoint snapshots all materialized state — every node's fragments,
// including empty-but-sized ones, so Restore reproduces each node's
// physical layout exactly — with the placement it was captured under.
func (c *Cluster) Checkpoint() (*Checkpoint, error) {
	if c.err != nil {
		return nil, c.err
	}
	cp := &Checkpoint{}
	cp.Driver = snapRels(c.driver.rels, &cp.Bytes)
	cp.Workers = make([]map[string]Frag, len(c.workers))
	if err := c.each(false, func(i int, w worker) error {
		frags, err := w.snapshot()
		cp.Workers[i] = frags
		return err
	}); err != nil {
		return nil, c.fail(err)
	}
	for _, w := range cp.Workers {
		for _, f := range w {
			cp.Bytes += int64(len(f.Payload))
		}
	}
	cp.Parts = c.parts.Clone()
	return cp, nil
}

// Restore replaces all cluster state with the checkpoint's. The worker
// count must match the snapshot (the paper's recovery model restarts the
// same deployment). Checkpoints may come from unreliable storage, so
// every fragment decodes through the bounds-guarded payload decoder and
// validates before any state is touched: a corrupt snapshot returns an
// error and leaves the cluster as it was.
func (c *Cluster) Restore(cp *Checkpoint) error {
	if c.err != nil {
		return c.err
	}
	if len(cp.Workers) != len(c.workers) {
		return fmt.Errorf("cluster: checkpoint has %d workers, cluster has %d",
			len(cp.Workers), len(c.workers))
	}
	driver, err := restoreFrags(cp.Driver)
	if err != nil {
		return err
	}
	workers := make([]map[string]*mring.Relation, len(cp.Workers))
	for i, enc := range cp.Workers {
		if workers[i], err = restoreFrags(enc); err != nil {
			return err
		}
	}
	if err := c.each(false, func(i int, w worker) error { return w.restore(workers[i]) }); err != nil {
		return c.fail(err)
	}
	c.driver.rels = driver
	for name, r := range driver {
		c.schemas[name] = r.Schema()
	}
	if cp.Parts != nil {
		c.parts = cp.Parts
	}
	c.committed = map[string]*mring.Relation{}
	c.since = map[string]*mring.Relation{}
	return nil
}

// KillWorker simulates a worker failure by discarding its state. A
// subsequent Restore recovers the deployment from the last checkpoint.
func (c *Cluster) KillWorker(i int) error {
	if i < 0 || i >= len(c.workers) {
		panic("cluster: no such worker")
	}
	if err := c.workers[i].restore(map[string]*mring.Relation{}); err != nil {
		return c.fail(err)
	}
	return nil
}

// Checkpoint serialization. The encoding carries a magic + format
// version so drift is detected as a descriptive error, never a garbage
// decode. Version 1 is the Frag-based body above; a body WITHOUT the
// magic is decoded as the pre-versioned PR 9 format (bare fragment
// payloads, no bucket sizes), whose restores are contents-exact but not
// layout-exact.
const (
	ckptMagic   = "IVCP"
	ckptVersion = 1
)

// legacyCheckpoint is the unversioned PR 9 in-memory shape.
type legacyCheckpoint struct {
	Workers []map[string][]byte
	Driver  map[string][]byte
	Bytes   int64
}

// EncodeCheckpoint serializes a checkpoint with the versioned header.
func EncodeCheckpoint(cp *Checkpoint) ([]byte, error) {
	var buf bytes.Buffer
	buf.WriteString(ckptMagic)
	buf.WriteByte(ckptVersion)
	if err := gob.NewEncoder(&buf).Encode(cp); err != nil {
		return nil, fmt.Errorf("cluster: encode checkpoint: %w", err)
	}
	return buf.Bytes(), nil
}

// DecodeCheckpoint parses a serialized checkpoint. Bodies carrying the
// magic must name a known version; bodies without it fall back to the
// legacy unversioned decode.
func DecodeCheckpoint(b []byte) (*Checkpoint, error) {
	if len(b) > len(ckptMagic) && string(b[:len(ckptMagic)]) == ckptMagic {
		if v := b[len(ckptMagic)]; v != ckptVersion {
			return nil, fmt.Errorf("cluster: unsupported checkpoint format version %d (have %d)", v, ckptVersion)
		}
		var cp Checkpoint
		if err := gob.NewDecoder(bytes.NewReader(b[len(ckptMagic)+1:])).Decode(&cp); err != nil {
			return nil, fmt.Errorf("cluster: corrupt checkpoint body: %w", err)
		}
		return &cp, nil
	}
	var legacy legacyCheckpoint
	if err := gob.NewDecoder(bytes.NewReader(b)).Decode(&legacy); err != nil {
		return nil, fmt.Errorf("cluster: not a checkpoint (no magic, and legacy decode failed): %w", err)
	}
	cp := &Checkpoint{Driver: map[string]Frag{}, Bytes: legacy.Bytes}
	for name, p := range legacy.Driver {
		cp.Driver[name] = Frag{Payload: p}
	}
	cp.Workers = make([]map[string]Frag, len(legacy.Workers))
	for i, w := range legacy.Workers {
		cp.Workers[i] = map[string]Frag{}
		for name, p := range w {
			cp.Workers[i][name] = Frag{Payload: p}
		}
	}
	return cp, nil
}
