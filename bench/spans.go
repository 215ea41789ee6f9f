package main

import "time"

// noParent marks a span that hangs off nothing: a workload's root span,
// or a measurement taken outside the rep (set-up, an extra replay).
const noParent = -1

// span is one timed interval at a layer boundary. A span around a single
// call has Calls == 1 and Busy == End-Start; a span that a wrapper
// re-enters on every call (a sink's WriteBatch, a writer's Write)
// accumulates: Start is the first entry, End the last exit, Busy the sum
// of the intervals in between. Times are nanoseconds since the
// recorder's epoch.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"`
	Workload string `json:"workload"`
	Name     string `json:"name"`
	// Layer is the per-layer metric family this span's self time is
	// charged to.
	Layer string `json:"layer"`
	Start int64  `json:"start_ns"`
	End   int64  `json:"end_ns"`
	Busy  int64  `json:"busy_ns"`
	Calls int64  `json:"calls"`
	// Replay marks a child that could not be interposed on: the same
	// public function was timed alone on the same data, outside the
	// parent's interval, and its Busy is subtracted from the parent like
	// any other child's.
	Replay bool `json:"replay,omitempty"`
}

// recorder keeps spans in memory until the run ends. A nil *recorder
// records nothing, so the bare timed path and the traced path share
// their code without the timed path paying for a wrapper.
type recorder struct {
	epoch    time.Time
	workload string
	spans    []span
}

func newRecorder(workload string) *recorder {
	return &recorder{epoch: time.Now(), workload: workload}
}

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

// open registers a span without entering it; wrappers enter and leave it
// once per call.
func (r *recorder) open(name, layer string, parent int) int {
	if r == nil {
		return noParent
	}
	id := len(r.spans)
	r.spans = append(r.spans, span{ID: id, Parent: parent, Workload: r.workload, Name: name, Layer: layer})
	return id
}

// enter returns the entry time to hand back to leave.
func (r *recorder) enter() int64 {
	if r == nil {
		return 0
	}
	return r.now()
}

func (r *recorder) leave(id int, entered int64) {
	if r == nil {
		return
	}
	now := r.now()
	s := &r.spans[id]
	if s.Calls == 0 {
		s.Start = entered
	}
	s.End = now
	s.Busy += now - entered
	s.Calls++
}

// call records one span around f.
func (r *recorder) call(name, layer string, parent int, f func() error) error {
	id := r.open(name, layer, parent)
	t := r.enter()
	err := f()
	r.leave(id, t)
	return err
}

// replay records f as a replayed child of parent. Only traced reps
// replay, so r is never nil here.
func (r *recorder) replay(name, layer string, parent int, f func() error) error {
	id := len(r.spans)
	err := r.call(name, layer, parent, f)
	r.spans[id].Replay = true
	return err
}

// find returns the id of the last span opened under name.
func (r *recorder) find(name string) int {
	for i := len(r.spans) - 1; i >= 0; i-- {
		if r.spans[i].Name == name {
			return i
		}
	}
	panic("bench: no span named " + name)
}

// selfTimes charges every span in root's tree its busy time minus its
// direct children's busy time, summed per layer. Every span but the root
// is added once as itself and subtracted once as a child, so the layers
// always sum to the root's busy time: nothing is counted twice and what
// the harness could not attribute stays with the root's own layer.
func selfTimes(spans []span, root int) map[string]int64 {
	inTree := make([]bool, len(spans))
	self := make([]int64, len(spans))
	inTree[root] = true
	// Spans are appended in open order, so a parent precedes its children.
	for i := range spans {
		s := &spans[i]
		if i != root && (s.Parent == noParent || !inTree[s.Parent]) {
			continue
		}
		inTree[i] = true
		self[i] += s.Busy
		if i != root {
			self[s.Parent] -= s.Busy
		}
	}
	out := make(map[string]int64)
	for i, ok := range inTree {
		if ok {
			out[spans[i].Layer] += self[i]
		}
	}
	return out
}

// busyOf sums the busy time of every span of the given layer, inside a
// tree or not; set-up and stand-alone replays are read this way.
func busyOf(spans []span, layer string) int64 {
	var ns int64
	for i := range spans {
		if spans[i].Layer == layer {
			ns += spans[i].Busy
		}
	}
	return ns
}
