package main

// span is one traced interval on the run clock. Parent is the index of
// the enclosing span (-1 for a root); Tx is the transaction it served
// (0 outside transactions; begin with tx -1 inherits the parent's).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Tx     int64  `json:"tx"`
}

// tracer keeps spans in memory. The benchmark is one client goroutine
// and subscriber callbacks run on it, so open spans nest as a stack. A
// nil tracer records nothing.
type tracer struct {
	clk   *clock
	spans []span
	open  []int
}

func (t *tracer) begin(name string, tx int64) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
		if tx < 0 {
			tx = t.spans[parent].Tx
		}
	}
	t.spans = append(t.spans, span{Name: name, Start: t.clk.now(), Parent: parent, Tx: tx})
	id := len(t.spans) - 1
	t.open = append(t.open, id)
	return id
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id].End = t.clk.now()
	t.open = t.open[:len(t.open)-1]
}
