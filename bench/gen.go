package main

import (
	"fmt"
	"io"

	"cptraffic/internal/core"
	"cptraffic/internal/cp"
	"cptraffic/internal/trace"
)

// genMem is the default traffgen path: core.Generate into memory.
type genMem struct {
	model *core.ModelSet
	opt   core.GenOptions
}

func (w *genMem) setup(e *env, rec *recorder, c counts) (err error) {
	w.model, err = buildModel(e, rec, c)
	w.opt = core.GenOptions{NumUEs: e.ues(400000, 2000), StartHour: 18, Duration: cp.Hour, Seed: e.seed + 11, Workers: 1}
	return err
}

func (w *genMem) run(r rep) (outcome, error) {
	root := r.rec.open("gen_mem", "bench", noParent)
	t := r.rec.enter()
	var tr *trace.Trace
	err := r.rec.call("core.Generate", "core.engine", root, func() (err error) {
		tr, err = core.Generate(w.model, w.opt)
		return err
	})
	r.rec.leave(root, t)
	if err != nil {
		return outcome{}, err
	}
	out := outcome{events: int64(tr.Len()), root: root}
	if r.audit || r.rec != nil {
		out.trace = tr
	}
	return out, nil
}

func (w *genMem) check(out *outcome, rec *recorder, c counts) []string {
	var failed []string
	tr := out.trace
	if !tr.Sorted() {
		failed = append(failed, "Trace.Sorted: events not in canonical order")
	}
	if err := tr.Validate(); err != nil {
		failed = append(failed, "Trace.Validate: "+err.Error())
	}
	var err error
	out.sha, err = digestOf(func(o *output) error { return trace.WriteBinaryTrace(o, tr) })
	if err != nil {
		failed = append(failed, "WriteBinaryTrace: "+err.Error())
	}
	return append(failed, checkReplay(tr, c)...)
}

// replays times the radix sort alone on Generate's pre-sort buffer, and
// runs the one many-worker rep behind par.generate.speedup.
func (w *genMem) replays(out outcome, rec *recorder, c counts) error {
	flat, _ := ueMajor(out.trace)
	t0 := cp.Millis(w.opt.StartHour) * cp.Hour
	err := rec.replay("trace.RadixSortEvents", "trace.radix", rec.find("core.Generate"), func() error {
		if !trace.RadixSortEvents(flat, t0) {
			return fmt.Errorf("radix key did not fit")
		}
		return nil
	})
	if err != nil {
		return err
	}
	opt := w.opt
	opt.Workers = 0
	defer allProcs()()
	return rec.call("core.Generate/workers=0", "par.generate", noParent, func() error {
		_, err := core.Generate(w.model, opt)
		return err
	})
}

// genStream is the streaming generator: core.NewSource merged and
// encoded batch by batch into a discarding writer.
type genStream struct {
	name                  string
	ues, hours, startHour int
	text                  bool

	model *core.ModelSet
	opt   core.GenOptions
}

// encoder is what both trace writers are.
type encoder interface {
	trace.EventSink
	trace.BatchSink
	Close() error
}

func (w *genStream) newEncoder(out io.Writer) encoder {
	if w.text {
		return trace.NewTextWriter(out)
	}
	return trace.NewStreamWriter(out)
}

func (w *genStream) encoderName() string {
	if w.text {
		return "trace.TextWriter"
	}
	return "trace.StreamWriter"
}

func (w *genStream) setup(e *env, rec *recorder, c counts) (err error) {
	w.model, err = buildModel(e, rec, c)
	w.opt = core.GenOptions{
		NumUEs: e.ues(w.ues, 40), StartHour: w.startHour, Duration: cp.Millis(w.hours) * cp.Hour,
		Seed: e.seed + 12, Workers: 1,
	}
	return err
}

func (w *genStream) run(r rep) (outcome, error) {
	rec := r.rec
	root := rec.open(w.name, "bench", noParent)
	t := rec.enter()
	var src *core.Source
	err := rec.call("core.NewSource", "core.source", root, func() (err error) {
		src, err = core.NewSource(w.model, w.opt)
		return err
	})
	if err != nil {
		return outcome{}, err
	}
	copyID := rec.open("trace.CopyBatches", "core.engine", root)
	encName := w.encoderName()
	sinkID := rec.open(encName, "trace.encode", copyID)
	out := newOutput(r, sinkID)
	defer out.sum() // retires the digest on the error returns too
	enc := w.newEncoder(out)

	var sink trace.EventSink = enc
	var probe *probeSink
	if r.audit || rec != nil {
		probe = &probeSink{next: enc, rec: rec, span: sinkID, checkOrder: r.audit}
		sink = probe
	}
	ct := rec.enter()
	err = trace.CopyBatches(sink, src)
	rec.leave(copyID, ct)
	if err == nil {
		err = rec.call(encName+".Close", "trace.encode", root, enc.Close)
	}
	rec.leave(root, t)
	if err != nil {
		return outcome{}, err
	}

	res := outcome{events: -1, bytes: out.n, root: root, sha: out.sum()}
	if probe != nil {
		res.events = probe.events
		res.outOfOrder = probe.outOfOrder
		r.count("trace.encode.bytes_per_event", float64(out.n)/float64(probe.events))
		r.count("trace.encode.batches", float64(probe.batches))
		r.count("trace.encode.write_calls", float64(out.calls))
	}
	if rec != nil {
		r.count("core.source.first_batch_s", float64(probe.firstBatch-rec.spans[copyID].Start)/1e9)
	}
	return res, nil
}

// check compares the streamed bytes with the in-memory path's: the same
// options through core.Generate and the whole-trace writer must give the
// same file.
func (w *genStream) check(out *outcome, rec *recorder, c counts) []string {
	ref, err := core.Generate(w.model, w.opt)
	if err != nil {
		return []string{"core.Generate (reference): " + err.Error()}
	}
	var failed []string
	sha, err := digestOf(func(o *output) error {
		if w.text {
			return trace.WriteTrace(o, ref)
		}
		return trace.WriteBinaryTrace(o, ref)
	})
	switch {
	case err != nil:
		failed = append(failed, "reference writer: "+err.Error())
	case sha != out.sha:
		failed = append(failed, fmt.Sprintf("cross-path sha256: streamed %s, core.Generate + whole-trace writer %s", out.sha, sha))
	}
	if int64(ref.Len()) != out.events {
		failed = append(failed, fmt.Sprintf("event count: streamed %d, core.Generate %d", out.events, ref.Len()))
	}
	if out.outOfOrder != 0 {
		failed = append(failed, fmt.Sprintf("canonical order: %d streamed events precede their predecessor", out.outOfOrder))
	}
	return append(failed, checkReplay(ref, c)...)
}

// replays times trace.MergeBatches alone: one SliceIterator per UE over
// the same events, into a sink that does nothing. What is left of
// CopyBatches after the sink and this merge is the engine filling runs.
func (w *genStream) replays(out outcome, rec *recorder, c counts) error {
	ref, err := core.Generate(w.model, w.opt)
	if err != nil {
		return err
	}
	flat, offs := ueMajor(ref)
	slices := make([]trace.SliceIterator, len(offs)-1)
	its := make([]trace.BatchIterator, len(slices))
	for i := range slices {
		slices[i].Events = flat[offs[i]:offs[i+1]]
		its[i] = &slices[i]
	}
	c["trace.merge.leaves"] = float64(len(its))
	merged := 0
	err = rec.replay("trace.MergeBatches", "trace.merge", rec.find("trace.CopyBatches"), func() error {
		return trace.MergeBatches(func(b *trace.Batch) error {
			merged += b.Len()
			return nil
		}, its)
	})
	if err == nil && merged != len(flat) {
		err = fmt.Errorf("merge replay delivered %d of %d events", merged, len(flat))
	}
	return err
}

// probeSink stands between CopyBatches and the encoder on audit and
// traced reps. It counts events and batches, times the encoder when
// there is a recorder, and checks canonical order on the audit rep. It
// reads each batch inside the call and keeps nothing of it.
type probeSink struct {
	next       encoder
	rec        *recorder
	span       int
	checkOrder bool

	events, batches int64
	firstBatch      int64 // recorder time of the first WriteBatch
	last            trace.Event
	outOfOrder      int64
}

func (s *probeSink) SetDevice(ue cp.UEID, d cp.DeviceType) error {
	t := s.rec.enter()
	err := s.next.SetDevice(ue, d)
	s.rec.leave(s.span, t)
	return err
}

func (s *probeSink) observe(e trace.Event) {
	if s.checkOrder && s.events > 0 && e.Before(s.last) {
		s.outOfOrder++
	}
	s.last = e
	s.events++
}

func (s *probeSink) Write(e trace.Event) error {
	s.observe(e)
	t := s.rec.enter()
	err := s.next.Write(e)
	s.rec.leave(s.span, t)
	return err
}

func (s *probeSink) WriteBatch(b *trace.Batch) error {
	if s.checkOrder {
		for i := 0; i < b.Len(); i++ {
			s.observe(b.At(i))
		}
	} else {
		s.events += int64(b.Len())
	}
	t := s.rec.enter()
	if s.batches == 0 {
		s.firstBatch = t
	}
	s.batches++
	err := s.next.WriteBatch(b)
	s.rec.leave(s.span, t)
	return err
}
