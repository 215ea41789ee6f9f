package trace

import (
	"bufio"
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"math/bits"
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

	devs []deviceEntry // ascending UE order
	reg  registry

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
	s := &Scanner{br: br, mode: scanBinary}
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
	s := &Scanner{br: br, mode: scanText}
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
	fresh, err := s.reg.add(ue, d)
	if fresh {
		s.devs = append(s.devs, deviceEntry{UE: ue, D: d})
	}
	return err
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
	d, ok := s.reg.typ[ue]
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
	// Chunked: a zero chunk length terminates the stream, and the input
	// must end there — a second file behind it, garbage, or a read error
	// is not a clean end.
	for s.remaining == 0 {
		n, err := binary.ReadUvarint(s.br)
		if err != nil {
			return s.fail(fmt.Errorf("trace: reading event chunk: %w", err))
		}
		if n == 0 {
			switch _, err := s.br.ReadByte(); err {
			case io.EOF:
				s.done = true
				return false
			case nil:
				return s.fail(errors.New("trace: trailing data after the stream terminator"))
			default:
				return s.fail(fmt.Errorf("trace: reading past the stream terminator: %w", err))
			}
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
	if !s.reg.has(cp.UEID(ue)) {
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
	if !s.reg.has(s.ev.UE) {
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
// encode loop, behind the one stream check (check.go); Write is its
// one-event face.
type StreamWriter struct {
	bw   *bufio.Writer
	devs []deviceEntry
	chk  streamCheck

	started bool // header + UE table written

	chunk  []byte // encoded records of the pending chunk, reused across flushes
	chunkN int
	prevT  cp.Millis // time of the last encoded event, zero before the first: its delta is its time

	scratch [binary.MaxVarintLen64]byte // putUvarint's: the header's and the chunk lengths' varints

	one Batch // Write's one-event batch, reused
}

// NewStreamWriter prepares an incremental binary trace writer on w.
func NewStreamWriter(w io.Writer) *StreamWriter {
	return &StreamWriter{bw: bufio.NewWriterSize(w, 1<<16)}
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
	if n := len(sw.devs); n > 0 && sw.devs[n-1].UE >= ue && !sw.chk.reg.has(ue) {
		return fmt.Errorf("trace: UE %d registered out of order (after %d)", ue, sw.devs[n-1].UE)
	}
	fresh, err := sw.chk.reg.add(ue, d)
	if fresh {
		sw.devs = append(sw.devs, deviceEntry{UE: ue, D: d})
	}
	return err
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

// WriteBatch appends a batch of events. Events must be registered, of a
// defined type, non-negative, and arrive in canonical order, within a
// batch and from one batch to the next; the events ahead of a refused
// one are written. Records accumulate in the reused chunk buffer and
// chunks flush at streamChunkSize boundaries, so the bytes are independent
// of how events were grouped into batches.
func (sw *StreamWriter) WriteBatch(b *Batch) error {
	n, refused := sw.chk.check(b)
	if n > 0 && !sw.started {
		if err := sw.writeHeader(); err != nil {
			return err
		}
	}
	for i := 0; i < n; {
		m := min(n-i, streamChunkSize-sw.chunkN)
		sw.appendRecords(b, i, i+m)
		i += m
		if sw.chunkN == streamChunkSize {
			if err := sw.flushChunk(); err != nil {
				return err
			}
		}
	}
	return refused
}

// appendRecords delta-encodes the checked events b[lo:hi] onto the reused
// chunk buffer.
//
//cplint:hotpath the per-event binary encode loop: varint appends straight onto the reused chunk buffer
func (sw *StreamWriter) appendRecords(b *Batch, lo, hi int) {
	chunk, prevT := sw.chunk, sw.prevT
	for i := lo; i < hi; i++ {
		chunk = binary.AppendUvarint(chunk, uint64(b.T[i]-prevT))
		chunk = binary.AppendUvarint(chunk, uint64(b.UE[i]))
		chunk = append(chunk, byte(b.Type[i]))
		prevT = b.T[i]
	}
	sw.chunk, sw.prevT = chunk, prevT
	sw.chunkN += hi - lo
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
	if sw.chk.closed {
		return nil
	}
	sw.chk.closed = true
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
// same SetDevice/Write/WriteBatch/Close protocol as StreamWriter and the
// same stream check (check.go). Its output for a canonical stream is
// byte-identical to WriteTrace of the collected trace.
type TextWriter struct {
	bw  *bufio.Writer
	chk streamCheck

	wroteHeader bool

	one Batch // Write's one-event batch, reused
}

// NewTextWriter prepares an incremental text trace writer on w.
func NewTextWriter(w io.Writer) *TextWriter {
	return &TextWriter{bw: bufio.NewWriterSize(w, 1<<16)}
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
	if tw.chk.hasLast {
		return fmt.Errorf("trace: SetDevice(%d) after events started", ue)
	}
	if !d.Valid() {
		return fmt.Errorf("trace: invalid device type %d", d)
	}
	fresh, err := tw.chk.reg.add(ue, d)
	if !fresh {
		return err
	}
	if err := tw.header(); err != nil {
		return err
	}
	line := append(tw.bw.AvailableBuffer(), 'U', ' ')
	line = strconv.AppendUint(line, uint64(ue), 10)
	line = append(line, ' ')
	line = append(line, d.String()...)
	_, err = tw.bw.Write(append(line, '\n'))
	return err
}

// Write appends one event line: a WriteBatch of one (bench/gen.go's
// probeSink forwards its own Write here).
func (tw *TextWriter) Write(e Event) error {
	tw.one.Reset()
	tw.one.Append(e)
	return tw.WriteBatch(&tw.one)
}

// WriteBatch appends a batch of event lines. Events must be registered,
// of a defined type, non-negative, and arrive in canonical order, within
// a batch and from one batch to the next; the lines of the events ahead
// of a refused one are written.
func (tw *TextWriter) WriteBatch(b *Batch) error {
	n, refused := tw.chk.check(b)
	if n > 0 {
		if err := tw.header(); err != nil {
			return err
		}
		if err := tw.appendLines(b, n); err != nil {
			return err
		}
	}
	return refused
}

const (
	// maxEventLine is the longest E line there is: math.MaxInt64,
	// math.MaxUint32 and the longest type name.
	maxEventLine = len("E 9223372036854775807 4294967295 S1_CONN_REL\n")
	// typeBlock is the size of a typeFields entry.
	typeBlock = 16
	// lineRoom is the buffer space appendLines wants ahead of a line:
	// fields are stored as fixed-width blocks of which the field's own
	// width is kept, so the last block of a maximal line reaches past
	// the line's end by its padding.
	lineRoom = len("E 9223372036854775807 4294967295") + typeBlock
)

// typeFields holds the tail of an E line per event type, " NAME\n" padded
// to typeBlock bytes, and typeWidths the part of it that counts.
var typeFields, typeWidths = func() (f [cp.NumEventTypes][typeBlock]byte, w [cp.NumEventTypes]uint8) {
	for _, typ := range cp.EventTypes {
		w[typ] = uint8(copy(f[typ][:], " "+typ.String()+"\n"))
	}
	return f, w
}()

// appendLines formats the first n events of b, which the stream check has
// passed, straight into the bufio.Writer's free space, and hands the
// buffer over when less than a line's room is left: the destination sees
// the same 64 KiB writes as if every line had gone through Write. Nothing
// is checked here and no store is sized by a value.
//
//cplint:hotpath the per-event text encode loop: fixed-width stores into the writer's own buffer
func (tw *TextWriter) appendLines(b *Batch, n int) error {
	ts, ues, types := b.T[:n], b.UE[:n], b.Type[:n]
	dst := tw.bw.AvailableBuffer()
	dst = dst[:cap(dst)]
	p := 0
	for i, t := range ts {
		if len(dst)-p < lineRoom {
			if _, err := tw.bw.Write(dst[:p]); err != nil {
				return err
			}
			if tw.bw.Available() < lineRoom {
				if err := tw.bw.Flush(); err != nil {
					return err
				}
			}
			dst = tw.bw.AvailableBuffer()
			dst = dst[:cap(dst)]
			p = 0
		}
		dst[p], dst[p+1] = 'E', ' '
		p = putDecimal(dst, p+2, uint64(t))
		dst[p] = ' '
		p = putDecimal(dst, p+1, uint64(ues[i]))
		typ := types[i]
		*(*[typeBlock]byte)(dst[p:]) = typeFields[typ]
		p += int(typeWidths[typ])
	}
	_, err := tw.bw.Write(dst[:p])
	return err
}

// putDecimal stores v in decimal at dst[p:] and returns the position past
// its last digit. It writes whole 8-byte words, so up to 7 bytes past that
// position are clobbered and must exist.
//
//cplint:hotpath twice per written line; arithmetic and 8-byte stores only
func putDecimal(dst []byte, p int, v uint64) int {
	if v < 1e8 {
		return putLeading(dst, p, uint32(v))
	}
	if v < 1e16 {
		p = putLeading(dst, p, uint32(v/1e8))
		binary.LittleEndian.PutUint64(dst[p:], digits8(uint32(v%1e8))|asciiZeros)
		return p + 8
	}
	p = putLeading(dst, p, uint32(v/1e16))
	v %= 1e16
	binary.LittleEndian.PutUint64(dst[p:], digits8(uint32(v/1e8))|asciiZeros)
	binary.LittleEndian.PutUint64(dst[p+8:], digits8(uint32(v%1e8))|asciiZeros)
	return p + 16
}

// putLeading is putDecimal for v < 1e8: eight digits less the leading
// zeros, of which a zero keeps one.
func putLeading(dst []byte, p int, v uint32) int {
	d := digits8(v)
	zeros := bits.TrailingZeros64(d|1<<56) >> 3
	binary.LittleEndian.PutUint64(dst[p:], (d|asciiZeros)>>(8*zeros))
	return p + 8 - zeros
}

const asciiZeros = 0x3030303030303030

// digits8 returns the eight decimal digits of v < 1e8, one per byte, the
// most significant in the lowest byte: stored little-endian they read left
// to right. Three rounds of divide-and-remainder, each on every lane at
// once — two 4-digit halves in 32-bit lanes, four 2-digit pairs in 16-bit
// lanes, eight digits in bytes — with the division a multiply and a shift
// (n/100 = n·5243>>19 below 10 000, n/10 = n·103>>10 below 100). No table,
// no loop whose length depends on v, no byte-sized stores to read back.
func digits8(v uint32) uint64 {
	x := uint64(v/1e4) | uint64(v%1e4)<<32
	q := x * 5243 >> 19 & 0x0000007f0000007f
	x = q | (x-q*100)<<16
	q = x * 103 >> 10 & 0x000f000f000f000f
	return q | (x-q*10)<<8
}

// Close flushes the buffer; it does not close the underlying writer.
func (tw *TextWriter) Close() error {
	if tw.chk.closed {
		return nil
	}
	tw.chk.closed = true
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
	chk := streamCheck{reg: sc.reg}
	for sc.ScanBatch(b) {
		if _, err := chk.check(b); err != nil {
			var oe *orderError
			if errors.As(err, &oe) {
				return fmt.Errorf("trace: %s: event %v after %v: %w", fs.Path, oe.ev, oe.after, ErrNotCanonical)
			}
			return err
		}
		if err := fn(b); err != nil {
			return err
		}
	}
	return sc.Err()
}
