package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// span is one timed call into a layer. Times are nanoseconds since the
// tracer started; Parent indexes the enclosing span (-1 for a root); Op
// numbers the function or request the span belongs to.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"`
	Op     int32  `json:"op"`
}

// layerStat accumulates one layer's self cost: span time (or heap
// allocations, when counting) minus the part its child spans cover.
type layerStat struct {
	selfNS  int64
	totalNS int64
	allocs  uint64
	bytes   uint64
	calls   int
}

type frame struct {
	idx     int32
	name    string
	start   int64
	childNS int64
	heap    heapCounts
	child   heapCounts
}

// maxKeptSpans bounds the spans kept for the trace file; aggregation covers
// every span regardless.
const maxKeptSpans = 200_000

// tracerMode selects what a tracer records.
type tracerMode int

const (
	// modeTiming stores spans and accumulates self time.
	modeTiming tracerMode = iota
	// modeCounting reads the exact heap counters at every span boundary
	// (stopping the world, so its times are not used) and accumulates
	// self allocations.
	modeCounting
	// modeOff records nothing: the untraced baseline of the same code.
	modeOff
)

// tracer records spans around the benchmark's calls into each layer.
type tracer struct {
	t0      time.Time
	mode    tracerMode
	spans   []span
	dropped int
	stack   []frame
	op      int32
	stats   map[string]*layerStat
}

func newTracer(mode tracerMode) *tracer {
	return &tracer{t0: time.Now(), mode: mode, stats: map[string]*layerStat{}}
}

// nextOp starts a new function or request: later root spans get a new id.
func (t *tracer) nextOp() { t.op++ }

func (t *tracer) begin(name string) {
	if t.mode == modeOff {
		return
	}
	fr := frame{idx: -1, name: name}
	if t.mode == modeTiming {
		if len(t.spans) < maxKeptSpans {
			parent := int32(-1)
			if n := len(t.stack); n > 0 {
				parent = t.stack[n-1].idx
			}
			fr.idx = int32(len(t.spans))
			t.spans = append(t.spans, span{Name: name, Parent: parent, Op: t.op})
		} else {
			t.dropped++
		}
	}
	t.stack = append(t.stack, fr)
	// Read the clock or the heap last, so the bookkeeping above stays
	// outside the span.
	top := &t.stack[len(t.stack)-1]
	if t.mode == modeCounting {
		top.heap = readHeap()
		return
	}
	top.start = time.Since(t.t0).Nanoseconds()
	if top.idx >= 0 {
		t.spans[top.idx].Start = top.start
	}
}

// end closes the innermost open span.
func (t *tracer) end() {
	if t.mode == modeOff {
		return
	}
	// Read the clock or the heap first, so the bookkeeping below stays
	// outside the span.
	var now int64
	var heap heapCounts
	if t.mode == modeCounting {
		heap = readHeap()
	} else {
		now = time.Since(t.t0).Nanoseconds()
	}
	n := len(t.stack) - 1
	fr := t.stack[n]
	t.stack = t.stack[:n]
	st := t.stats[fr.name]
	if st == nil {
		st = &layerStat{}
		t.stats[fr.name] = st
	}
	st.calls++
	if t.mode == modeCounting {
		total := heap.sub(fr.heap)
		st.allocs += total.objects - fr.child.objects
		st.bytes += total.bytes - fr.child.bytes
		if n > 0 {
			p := &t.stack[n-1].child
			p.objects += total.objects
			p.bytes += total.bytes
		}
		return
	}
	dur := now - fr.start
	st.selfNS += dur - fr.childNS
	st.totalNS += dur
	if n > 0 {
		t.stack[n-1].childNS += dur
	}
	if fr.idx >= 0 {
		t.spans[fr.idx].End = now
	}
}

// record adds a completed child span of the given duration, ending now, to
// the innermost open span — for stages whose time the program reports
// after the fact.
func (t *tracer) record(name string, durNS int64) {
	if t.mode == modeOff {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	n := len(t.stack) - 1
	if len(t.spans) < maxKeptSpans {
		t.spans = append(t.spans, span{Name: name, Start: now - durNS, End: now, Parent: t.stack[n].idx, Op: t.op})
	} else {
		t.dropped++
	}
	st := t.stats[name]
	if st == nil {
		st = &layerStat{}
		t.stats[name] = st
	}
	st.calls++
	st.selfNS += durNS
	st.totalNS += durNS
	t.stack[n].childNS += durNS
}

// reset zeroes the accumulated stats in place, so a later pass allocates
// nothing for them.
func (t *tracer) reset() {
	for _, st := range t.stats {
		*st = layerStat{}
	}
}

// stat returns the accumulated stat of a layer (zero when it never ran).
func (t *tracer) stat(name string) layerStat {
	if st := t.stats[name]; st != nil {
		return *st
	}
	return layerStat{}
}

// write stores the kept spans as JSON.
func (t *tracer) write(path, workload string, seed int64) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("writing the trace: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	head := struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Spans    int    `json:"spans"`
		Dropped  int    `json:"dropped"`
	}{workload, seed, len(t.spans), t.dropped}
	if err := enc.Encode(head); err != nil {
		f.Close()
		return err
	}
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
