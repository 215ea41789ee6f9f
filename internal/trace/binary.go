package trace

import "io"

// Binary trace format: a compact delta-encoded encoding for large traces
// (a 380K-UE busy hour is ~6x smaller than in the text format).
//
//	magic "CPTB" | u8 version=2
//	uvarint numUEs | numUEs x (uvarint ueDelta, u8 device)   — UEs ascending
//	chunks: uvarint n>0 | n x (uvarint tDelta, uvarint ue, u8 type)
//	terminator: uvarint 0, and the end of the input
//
// Events are written in canonical time order; tDelta is the millisecond
// difference from the previous event (the first is the absolute time),
// continuing across chunk boundaries. Chunked framing (v2) lets a writer
// stream events without knowing the total count up front. Any other
// version byte is refused.

var binaryMagic = [4]byte{'C', 'P', 'T', 'B'}

const binaryVersion = 2

// WriteBinaryTrace serializes tr in the compact binary format: a
// StreamWriter fed from the in-memory trace. Events are written in
// canonical sorted order regardless of their in-memory order
// (Trace.ScanBatches sorts a copy when it has to).
func WriteBinaryTrace(w io.Writer, tr *Trace) error {
	sw := NewStreamWriter(w)
	if err := CopyBatches(sw, tr); err != nil {
		return err
	}
	return sw.Close()
}

// collectScanner drains a Scanner into an in-memory trace.
func collectScanner(sc *Scanner) (*Trace, error) {
	tr := New()
	if err := sc.Devices(tr.SetDevice); err != nil {
		return nil, err
	}
	for sc.Scan() {
		tr.Events = append(tr.Events, sc.Event())
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return tr, nil
}

// ReadAuto reads a whole trace, text or binary, into memory: a Scanner,
// drained. Events keep their file order. Use Scanner or
// FileSource to process large files incrementally.
func ReadAuto(r io.Reader) (*Trace, error) {
	sc, err := NewScanner(r)
	if err != nil {
		return nil, err
	}
	return collectScanner(sc)
}
