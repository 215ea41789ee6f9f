package trace

import (
	"bufio"
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"strconv"
	"strings"

	"cptraffic/internal/cp"
)

// Scanner is the trace decoder — every reader (ReadAuto, FileSource, the
// CLIs) is a drain of it. It reads incrementally: the device registry is
// parsed up front (O(UEs)), then events are decoded one at a time into a
// reused record, so a multi-week trace is never resident in memory. It
// handles the binary and the text format, and checks every
// record against the registry but not the order of events: ReadAuto keeps
// file order, FileSource enforces the canonical one.
//
//	sc, err := trace.NewScanner(r)
//	for sc.Scan() {
//		ev := sc.Event()
//		...
//	}
//	err = sc.Err()
type Scanner struct {
	br *bufio.Reader

	devs   []deviceEntry // ascending UE order
	devSet map[cp.UEID]cp.DeviceType

	mode    scanMode
	ev      Event
	err     error
	done    bool
	started bool

	// Binary decoding state.
	remaining uint64 // records left in the current chunk
	prevT     uint64

	// Text decoding state.
	lineno  int
	pending *Event // first event line, parsed while reading the registry
}

type deviceEntry struct {
	UE cp.UEID
	D  cp.DeviceType
}

type scanMode uint8

const (
	scanBinary scanMode = iota
	scanText
)

// maxLineLen bounds one line of the text format, newline included, and
// sizes the read buffer so that a longer line is refused without being
// buffered. Real lines are under 40 bytes.
const maxLineLen = 1 << 16

// NewScanner detects the trace format from the leading bytes and parses
// the header and device registry, leaving the event stream untouched.
func NewScanner(r io.Reader) (*Scanner, error) {
	br := bufio.NewReaderSize(r, maxLineLen)
	head, err := br.Peek(4)
	if err != nil {
		return nil, fmt.Errorf("trace: peeking format: %w", err)
	}
	if [4]byte{head[0], head[1], head[2], head[3]} == binaryMagic {
		if _, err := br.Discard(4); err != nil {
			return nil, err
		}
		ver, err := br.ReadByte()
		if err != nil {
			return nil, err
		}
		return newBinaryScanner(br, ver)
	}
	return newTextScanner(br)
}

// newBinaryScanner parses the UE table of a binary trace whose magic and
// version byte have already been consumed.
func newBinaryScanner(br *bufio.Reader, version byte) (*Scanner, error) {
	if version != binaryVersion {
		return nil, fmt.Errorf("trace: unsupported binary version %d", version)
	}
	s := &Scanner{br: br, mode: scanBinary, devSet: make(map[cp.UEID]cp.DeviceType)}
	numUEs, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("trace: reading UE count: %w", err)
	}
	prevUE := uint64(0)
	for i := uint64(0); i < numUEs; i++ {
		delta, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, fmt.Errorf("trace: reading UE %d: %w", i, err)
		}
		ue := delta
		if i > 0 {
			ue = prevUE + delta
		}
		prevUE = ue
		if ue > uint64(^cp.UEID(0)) {
			return nil, fmt.Errorf("trace: UE id %d overflows", ue)
		}
		db, err := br.ReadByte()
		if err != nil {
			return nil, err
		}
		d := cp.DeviceType(db)
		if !d.Valid() {
			return nil, fmt.Errorf("trace: invalid device type %d", db)
		}
		if err := s.register(cp.UEID(ue), d); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// newTextScanner parses the text header plus the leading U lines: the
// grammar (codec.go) puts every registration before the first event.
func newTextScanner(br *bufio.Reader) (*Scanner, error) {
	s := &Scanner{br: br, mode: scanText, devSet: make(map[cp.UEID]cp.DeviceType)}
	line, err := s.readLine()
	if err != nil {
		if err == io.EOF {
			return nil, fmt.Errorf("trace: empty input")
		}
		return nil, err
	}
	if strings.TrimSpace(line) != headerLine {
		return nil, fmt.Errorf("trace: bad header %q", strings.TrimSpace(line))
	}
	for s.pending == nil {
		line, err := s.readLine()
		if err == io.EOF {
			s.done = true
			break
		}
		if err != nil {
			return nil, err
		}
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		switch fields[0] {
		case "U":
			ue, d, err := parseULine(fields, line, s.lineno)
			if err != nil {
				return nil, err
			}
			if err := s.register(ue, d); err != nil {
				return nil, err
			}
		case "E":
			ev, err := parseELine(fields, line, s.lineno)
			if err != nil {
				return nil, err
			}
			s.pending = &ev
		default:
			return nil, fmt.Errorf("trace: line %d: unknown record %q", s.lineno, fields[0])
		}
	}
	// Registrations are complete; sort them into the canonical ascending
	// order the Devices contract promises.
	slices.SortFunc(s.devs, func(a, b deviceEntry) int { return cmp.Compare(a.UE, b.UE) })
	return s, nil
}

func (s *Scanner) register(ue cp.UEID, d cp.DeviceType) error {
	if prev, ok := s.devSet[ue]; ok {
		if prev != d {
			return fmt.Errorf("trace: UE %d already registered as %v, cannot change to %v", ue, prev, d)
		}
		return nil
	}
	s.devSet[ue] = d
	s.devs = append(s.devs, deviceEntry{UE: ue, D: d})
	return nil
}

func (s *Scanner) readLine() (string, error) {
	line, err := s.br.ReadSlice('\n')
	if err == io.EOF && len(line) > 0 {
		err = nil // final line without a trailing newline
	}
	if err == bufio.ErrBufferFull || len(line) > maxLineLen {
		return "", fmt.Errorf("trace: line %d: longer than %d bytes", s.lineno+1, maxLineLen)
	}
	if err != nil {
		return "", err
	}
	s.lineno++
	return string(line), nil
}

// NumUEs returns the number of registered UEs.
func (s *Scanner) NumUEs() int { return len(s.devs) }

// Device returns the device type of a registered UE.
func (s *Scanner) Device(ue cp.UEID) (cp.DeviceType, bool) {
	d, ok := s.devSet[ue]
	return d, ok
}

// Devices iterates the registry in ascending UE order.
func (s *Scanner) Devices(fn func(cp.UEID, cp.DeviceType) error) error {
	for _, e := range s.devs {
		if err := fn(e.UE, e.D); err != nil {
			return err
		}
	}
	return nil
}

// Scan advances to the next event, returning false at the end of the
// stream or on error (distinguished by Err). Scan and Event are also the
// loop of bench/main.go's trace check.
func (s *Scanner) Scan() bool {
	if s.done || s.err != nil {
		return false
	}
	if s.mode == scanBinary {
		return s.scanBinary()
	}
	return s.scanText()
}

// Event returns the record decoded by the last successful Scan. It is
// overwritten by the next Scan.
func (s *Scanner) Event() Event { return s.ev }

// ScanBatch resets b and fills it with up to b.Cap() events (growing an
// empty batch to DefaultBatchSize), reporting whether it decoded any.
// It is the batched face of Scan: looping ScanBatch yields exactly the
// events Scan would, DefaultBatchSize at a time, without an interface
// hop per event. Errors surface through Err as usual.
//
//cplint:hotpath the batched ingest loop: decodes straight into the reused batch columns
func (s *Scanner) ScanBatch(b *Batch) bool {
	b.Reset()
	if b.Cap() == 0 {
		b.Grow(DefaultBatchSize)
	}
	for b.Len() < b.Cap() && s.Scan() {
		b.T = append(b.T, s.ev.T)
		b.UE = append(b.UE, s.ev.UE)
		b.Type = append(b.Type, s.ev.Type)
	}
	return b.Len() > 0
}

// Err returns the first error encountered (nil after a clean end).
func (s *Scanner) Err() error { return s.err }

func (s *Scanner) fail(err error) bool {
	s.err = err
	return false
}

func (s *Scanner) scanBinary() bool {
	// Chunked: a zero chunk length terminates the stream.
	for s.remaining == 0 {
		n, err := binary.ReadUvarint(s.br)
		if err != nil {
			return s.fail(fmt.Errorf("trace: reading event chunk: %w", err))
		}
		if n == 0 {
			s.done = true
			return false
		}
		s.remaining = n
	}
	delta, err := binary.ReadUvarint(s.br)
	if err != nil {
		return s.fail(fmt.Errorf("trace: reading event: %w", err))
	}
	t := delta
	if s.started {
		t = s.prevT + delta
	}
	if t > math.MaxInt64 {
		return s.fail(fmt.Errorf("trace: timestamp %d overflows", t))
	}
	s.prevT = t
	s.started = true
	ue, err := binary.ReadUvarint(s.br)
	if err != nil {
		return s.fail(err)
	}
	if ue > uint64(^cp.UEID(0)) {
		return s.fail(fmt.Errorf("trace: UE id %d overflows", ue))
	}
	tb, err := s.br.ReadByte()
	if err != nil {
		return s.fail(err)
	}
	et := cp.EventType(tb)
	if !et.Valid() {
		return s.fail(fmt.Errorf("trace: invalid event type %d", tb))
	}
	if _, ok := s.devSet[cp.UEID(ue)]; !ok {
		return s.fail(fmt.Errorf("trace: event for unregistered UE %d", ue))
	}
	s.remaining--
	s.ev = Event{T: cp.Millis(t), UE: cp.UEID(ue), Type: et}
	return true
}

func (s *Scanner) scanText() bool {
	if s.pending != nil {
		s.ev = *s.pending
		s.pending = nil
		return s.checkTextEvent()
	}
	for {
		line, err := s.readLine()
		if err == io.EOF {
			s.done = true
			return false
		}
		if err != nil {
			return s.fail(err)
		}
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		switch fields[0] {
		case "E":
			ev, err := parseELine(fields, line, s.lineno)
			if err != nil {
				return s.fail(err)
			}
			s.ev = ev
			return s.checkTextEvent()
		case "U":
			return s.fail(fmt.Errorf("trace: line %d: registration after events (all U lines come first)", s.lineno))
		default:
			return s.fail(fmt.Errorf("trace: line %d: unknown record %q", s.lineno, fields[0]))
		}
	}
}

func (s *Scanner) checkTextEvent() bool {
	if _, ok := s.devSet[s.ev.UE]; !ok {
		return s.fail(fmt.Errorf("trace: line %d: event for unregistered UE %d", s.lineno, s.ev.UE))
	}
	if s.ev.T < 0 {
		return s.fail(fmt.Errorf("trace: line %d: negative timestamp %d", s.lineno, s.ev.T))
	}
	return true
}

func parseULine(fields []string, line string, lineno int) (cp.UEID, cp.DeviceType, error) {
	if len(fields) != 3 {
		return 0, 0, fmt.Errorf("trace: line %d: want 'U <ue> <device>', got %q", lineno, line)
	}
	ue, err := strconv.ParseUint(fields[1], 10, 32)
	if err != nil {
		return 0, 0, fmt.Errorf("trace: line %d: bad UE id: %v", lineno, err)
	}
	dt, err := cp.ParseDeviceType(fields[2])
	if err != nil {
		return 0, 0, fmt.Errorf("trace: line %d: %v", lineno, err)
	}
	return cp.UEID(ue), dt, nil
}

func parseELine(fields []string, line string, lineno int) (Event, error) {
	if len(fields) != 4 {
		return Event{}, fmt.Errorf("trace: line %d: want 'E <ms> <ue> <type>', got %q", lineno, line)
	}
	t, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Event{}, fmt.Errorf("trace: line %d: bad timestamp: %v", lineno, err)
	}
	ue, err := strconv.ParseUint(fields[2], 10, 32)
	if err != nil {
		return Event{}, fmt.Errorf("trace: line %d: bad UE id: %v", lineno, err)
	}
	et, err := cp.ParseEventType(fields[3])
	if err != nil {
		return Event{}, fmt.Errorf("trace: line %d: %v", lineno, err)
	}
	return Event{T: cp.Millis(t), UE: cp.UEID(ue), Type: et}, nil
}

// streamChunkSize is the event count per binary-v2 chunk: small enough
// that a writer's buffered window stays a few KB, large enough that the
// per-chunk length prefix is noise (<0.1% of the record bytes).
const streamChunkSize = 1024

// StreamWriter writes the binary trace format incrementally: register
// every UE (ascending order), then write events in canonical order, then
// Close. Events are framed in chunks with a zero terminator (format
// version 2), so it never needs the event count and a generator can pour
// an unbounded stream through O(1) writer state. WriteBatch is the one
// checked encode loop; Write is its one-event face.
type StreamWriter struct {
	bw     *bufio.Writer
	devs   []deviceEntry
	devSet map[cp.UEID]cp.DeviceType

	started bool // header + UE table written
	closed  bool
	prevT   cp.Millis
	last    Event
	hasLast bool

	chunk   []byte // encoded records of the pending chunk, reused across flushes
	chunkN  int
	scratch [binary.MaxVarintLen64]byte

	one Batch // Write's one-event batch, reused
}

// NewStreamWriter prepares an incremental binary trace writer on w.
func NewStreamWriter(w io.Writer) *StreamWriter {
	return &StreamWriter{
		bw:     bufio.NewWriterSize(w, 1<<16),
		devSet: make(map[cp.UEID]cp.DeviceType),
	}
}

// SetDevice registers a UE. All registrations must precede the first
// Write and arrive in ascending UE order (the EventSource contract).
func (sw *StreamWriter) SetDevice(ue cp.UEID, d cp.DeviceType) error {
	if sw.started {
		return fmt.Errorf("trace: SetDevice(%d) after events started", ue)
	}
	if !d.Valid() {
		return fmt.Errorf("trace: invalid device type %d", d)
	}
	if prev, ok := sw.devSet[ue]; ok {
		if prev != d {
			return fmt.Errorf("trace: UE %d already registered as %v, cannot change to %v", ue, prev, d)
		}
		return nil
	}
	if n := len(sw.devs); n > 0 && sw.devs[n-1].UE >= ue {
		return fmt.Errorf("trace: UE %d registered out of order (after %d)", ue, sw.devs[n-1].UE)
	}
	sw.devSet[ue] = d
	sw.devs = append(sw.devs, deviceEntry{UE: ue, D: d})
	return nil
}

func (sw *StreamWriter) putUvarint(v uint64) error {
	n := binary.PutUvarint(sw.scratch[:], v)
	_, err := sw.bw.Write(sw.scratch[:n])
	return err
}

func (sw *StreamWriter) writeHeader() error {
	if _, err := sw.bw.Write(binaryMagic[:]); err != nil {
		return err
	}
	if err := sw.bw.WriteByte(binaryVersion); err != nil {
		return err
	}
	if err := sw.putUvarint(uint64(len(sw.devs))); err != nil {
		return err
	}
	prevUE := uint64(0)
	for i, e := range sw.devs {
		delta := uint64(e.UE)
		if i > 0 {
			delta = uint64(e.UE) - prevUE
		}
		prevUE = uint64(e.UE)
		if err := sw.putUvarint(delta); err != nil {
			return err
		}
		if err := sw.bw.WriteByte(byte(e.D)); err != nil {
			return err
		}
	}
	sw.started = true
	return nil
}

// Write appends one event: a WriteBatch of one (bench/gen.go's probeSink
// forwards its own Write here).
func (sw *StreamWriter) Write(e Event) error {
	sw.one.Reset()
	sw.one.Append(e)
	return sw.WriteBatch(&sw.one)
}

// appendRecord delta-encodes one already-validated event into the reused
// chunk buffer and advances the writer's order state.
//
//cplint:hotpath runs once per written event; varint appends into the reused chunk buffer
func (sw *StreamWriter) appendRecord(e Event) {
	delta := uint64(e.T)
	if sw.hasLast {
		delta = uint64(e.T - sw.prevT)
	}
	n := binary.PutUvarint(sw.scratch[:], delta)
	sw.chunk = append(sw.chunk, sw.scratch[:n]...)
	n = binary.PutUvarint(sw.scratch[:], uint64(e.UE))
	sw.chunk = append(sw.chunk, sw.scratch[:n]...)
	sw.chunk = append(sw.chunk, byte(e.Type))
	sw.chunkN++
	sw.prevT = e.T
	sw.last, sw.hasLast = e, true
}

// WriteBatch appends a batch of events. Events must be registered,
// non-negative, and arrive in canonical order, within a batch and from
// one batch to the next. Records accumulate in the reused chunk buffer and
// chunks flush at streamChunkSize boundaries, so the bytes are independent
// of how events were grouped into batches.
func (sw *StreamWriter) WriteBatch(b *Batch) error {
	if sw.closed {
		return fmt.Errorf("trace: Write after Close")
	}
	if b.Len() > 0 && !sw.started {
		if err := sw.writeHeader(); err != nil {
			return err
		}
	}
	for i := range b.T {
		e := Event{T: b.T[i], UE: b.UE[i], Type: b.Type[i]}
		if _, ok := sw.devSet[e.UE]; !ok {
			return fmt.Errorf("trace: event for unregistered UE %d", e.UE)
		}
		if e.T < 0 {
			return fmt.Errorf("trace: binary format cannot encode negative timestamp %d", e.T)
		}
		if sw.hasLast && e.Before(sw.last) {
			return fmt.Errorf("trace: event %v out of canonical order (after %v)", e, sw.last)
		}
		sw.appendRecord(e)
		if sw.chunkN >= streamChunkSize {
			if err := sw.flushChunk(); err != nil {
				return err
			}
		}
	}
	return nil
}

func (sw *StreamWriter) flushChunk() error {
	if sw.chunkN == 0 {
		return nil
	}
	if err := sw.putUvarint(uint64(sw.chunkN)); err != nil {
		return err
	}
	if _, err := sw.bw.Write(sw.chunk); err != nil {
		return err
	}
	sw.chunk = sw.chunk[:0]
	sw.chunkN = 0
	return nil
}

// Close flushes the final chunk, writes the stream terminator, and
// flushes the buffer. It does not close the underlying writer.
func (sw *StreamWriter) Close() error {
	if sw.closed {
		return nil
	}
	sw.closed = true
	if !sw.started {
		if err := sw.writeHeader(); err != nil {
			return err
		}
	}
	if err := sw.flushChunk(); err != nil {
		return err
	}
	if err := sw.putUvarint(0); err != nil {
		return err
	}
	return sw.bw.Flush()
}

// TextWriter writes the line-oriented text format incrementally, with the
// same SetDevice/Write/WriteBatch/Close protocol and the same event checks
// as StreamWriter. Its output for a canonical stream is byte-identical to
// WriteTrace of the collected trace.
type TextWriter struct {
	bw     *bufio.Writer
	devSet map[cp.UEID]cp.DeviceType

	wroteHeader bool
	seenEvent   bool
	closed      bool
	last        Event
	hasLast     bool

	// line is the reused record-formatting buffer: per-event fmt verbs
	// would box every integer argument, so the writer appends with
	// strconv instead (byte-identical output, zero steady-state
	// allocations).
	line []byte

	one Batch // Write's one-event batch, reused
}

// NewTextWriter prepares an incremental text trace writer on w.
func NewTextWriter(w io.Writer) *TextWriter {
	return &TextWriter{bw: bufio.NewWriterSize(w, 1<<16), devSet: make(map[cp.UEID]cp.DeviceType)}
}

func (tw *TextWriter) header() error {
	if tw.wroteHeader {
		return nil
	}
	tw.wroteHeader = true
	_, err := fmt.Fprintln(tw.bw, headerLine)
	return err
}

// SetDevice registers a UE; registrations must precede the first Write.
func (tw *TextWriter) SetDevice(ue cp.UEID, d cp.DeviceType) error {
	if tw.seenEvent {
		return fmt.Errorf("trace: SetDevice(%d) after events started", ue)
	}
	if !d.Valid() {
		return fmt.Errorf("trace: invalid device type %d", d)
	}
	if prev, ok := tw.devSet[ue]; ok {
		if prev != d {
			return fmt.Errorf("trace: UE %d already registered as %v, cannot change to %v", ue, prev, d)
		}
		return nil
	}
	if err := tw.header(); err != nil {
		return err
	}
	tw.devSet[ue] = d
	_, err := tw.bw.Write(tw.formatDevice(ue, d))
	return err
}

// formatDevice renders one U line into the reused line buffer.
//
//cplint:hotpath strconv.Append* into the reused buffer, no fmt, no fresh slices
func (tw *TextWriter) formatDevice(ue cp.UEID, d cp.DeviceType) []byte {
	b := append(tw.line[:0], 'U', ' ')
	b = strconv.AppendUint(b, uint64(ue), 10)
	b = append(b, ' ')
	b = append(b, d.String()...)
	b = append(b, '\n')
	tw.line = b
	return b
}

// Write appends one event line: a WriteBatch of one (bench/gen.go's
// probeSink forwards its own Write here).
func (tw *TextWriter) Write(e Event) error {
	tw.one.Reset()
	tw.one.Append(e)
	return tw.WriteBatch(&tw.one)
}

// formatEvent renders one E line into the reused line buffer — the
// per-event formatting on the streamed-write path.
//
//cplint:hotpath runs once per written event; strconv.Append* into the reused buffer
func (tw *TextWriter) formatEvent(e Event) []byte {
	b := append(tw.line[:0], 'E', ' ')
	b = strconv.AppendInt(b, int64(e.T), 10)
	b = append(b, ' ')
	b = strconv.AppendUint(b, uint64(e.UE), 10)
	b = append(b, ' ')
	b = append(b, e.Type.String()...)
	b = append(b, '\n')
	tw.line = b
	return b
}

// WriteBatch appends a batch of event lines, each formatted into the
// reused line buffer. Events must be registered, non-negative, and arrive
// in canonical order, within a batch and from one batch to the next.
func (tw *TextWriter) WriteBatch(b *Batch) error {
	if tw.closed {
		return fmt.Errorf("trace: Write after Close")
	}
	if b.Len() > 0 {
		if err := tw.header(); err != nil {
			return err
		}
		// Times never decrease from here on, so the stream's first
		// event is the only one that can be negative.
		if !tw.hasLast && b.T[0] < 0 {
			return fmt.Errorf("trace: negative timestamp %d", b.T[0])
		}
	}
	for i := range b.T {
		e := Event{T: b.T[i], UE: b.UE[i], Type: b.Type[i]}
		if _, ok := tw.devSet[e.UE]; !ok {
			return fmt.Errorf("trace: event for unregistered UE %d", e.UE)
		}
		if tw.hasLast && e.Before(tw.last) {
			return fmt.Errorf("trace: event %v out of canonical order (after %v)", e, tw.last)
		}
		tw.seenEvent = true
		tw.last, tw.hasLast = e, true
		if _, err := tw.bw.Write(tw.formatEvent(e)); err != nil {
			return err
		}
	}
	return nil
}

// Close flushes the buffer; it does not close the underlying writer.
func (tw *TextWriter) Close() error {
	if tw.closed {
		return nil
	}
	tw.closed = true
	if err := tw.header(); err != nil {
		return err
	}
	return tw.bw.Flush()
}

// countingSink wraps one of the two writers, tallying what passes
// through. It forwards whole batches, so counting does not force the
// stream back onto the per-event path.
type countingSink struct {
	w interface {
		EventSink
		BatchSink
	}
	ues, events int
}

func (c *countingSink) SetDevice(ue cp.UEID, d cp.DeviceType) error {
	c.ues++
	return c.w.SetDevice(ue, d)
}

func (c *countingSink) Write(e Event) error {
	c.events++
	return c.w.Write(e)
}

func (c *countingSink) WriteBatch(b *Batch) error {
	c.events += b.Len()
	return c.w.WriteBatch(b)
}

// WriteSource encodes src onto w, in the binary format (StreamWriter) or
// the text format (TextWriter), over the batched pipeline, and returns how
// many registrations and events it wrote. It is the generator CLIs' one
// output call: a streaming Source and an in-memory *Trace go through the
// same writers, which is why -stream cannot change the bytes. For a
// canonical trace they are WriteBinaryTrace's and WriteTrace's bytes.
func WriteSource(w io.Writer, src EventSource, binaryFormat bool) (ues, events int, err error) {
	var cs countingSink
	var closeFn func() error
	if binaryFormat {
		sw := NewStreamWriter(w)
		cs.w, closeFn = sw, sw.Close
	} else {
		tw := NewTextWriter(w)
		cs.w, closeFn = tw, tw.Close
	}
	if err := CopyBatches(&cs, src); err != nil {
		return 0, 0, err
	}
	return cs.ues, cs.events, closeFn()
}

// ErrNotCanonical is what FileSource's scans wrap when the file's events
// are not in canonical order. A stream cannot repair that; a caller that
// can afford the memory reads the file with ReadAuto and sorts the trace.
var ErrNotCanonical = errors.New("events out of canonical order")

// FileSource is a re-iterable EventSource backed by a trace file (binary
// or text). Every Devices/ScanBatches call reopens the file, so concurrent
// passes are independent and peak memory is the registry plus one decode
// batch — never the event sequence.
type FileSource struct {
	Path string
}

// NewFileSource validates that path holds a parseable trace header and
// returns the source.
func NewFileSource(path string) (*FileSource, error) {
	fs := &FileSource{Path: path}
	f, _, err := fs.open()
	if err != nil {
		return nil, err
	}
	f.Close()
	return fs, nil
}

func (fs *FileSource) open() (*os.File, *Scanner, error) {
	f, err := os.Open(fs.Path)
	if err != nil {
		return nil, nil, err
	}
	sc, err := NewScanner(f)
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	return f, sc, nil
}

// Devices implements EventSource from the file's registry table.
func (fs *FileSource) Devices(fn func(cp.UEID, cp.DeviceType) error) error {
	f, sc, err := fs.open()
	if err != nil {
		return err
	}
	defer f.Close()
	return sc.Devices(fn)
}

// Scan is ScanBatches, one event at a time: the only per-event scan left,
// kept for bench/fit.go's "FileSource.Scan" replay.
func (fs *FileSource) Scan(fn func(Event) error) error {
	return fs.ScanBatches(Unbatch(fn))
}

// ScanBatches implements EventSource: the file's events decode straight
// into a reused batch via Scanner.ScanBatch, enforcing the canonical-order
// stream contract within and across batches (ErrNotCanonical).
func (fs *FileSource) ScanBatches(fn func(*Batch) error) error {
	f, sc, err := fs.open()
	if err != nil {
		return err
	}
	defer f.Close()
	b := NewBatch(DefaultBatchSize)
	var last Event
	hasLast := false
	for sc.ScanBatch(b) {
		for i := range b.T {
			ev := Event{T: b.T[i], UE: b.UE[i], Type: b.Type[i]}
			if hasLast && ev.Before(last) {
				return fmt.Errorf("trace: %s: event %v after %v: %w", fs.Path, ev, last, ErrNotCanonical)
			}
			last, hasLast = ev, true
		}
		if err := fn(b); err != nil {
			return err
		}
	}
	return sc.Err()
}
