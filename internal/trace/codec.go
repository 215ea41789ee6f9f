package trace

import (
	"bufio"
	"fmt"
	"io"
)

// The text trace format is line-oriented, chosen for easy inspection with
// standard tools:
//
//	# cptraffic-trace v1
//	U <ue> <device>        one line per UE registration
//	E <millis> <ue> <type> one line per event
//
// The grammar is the header line, then every U line, then the E lines;
// blank lines and # comments may appear anywhere. Timestamps are
// non-negative, every event's UE is registered, and a line is at most
// maxLineLen bytes. A U line after the first E line and a negative
// timestamp are refused with the line number. Events may appear in any
// order: ReadAuto preserves file order (Trace.ScanBatches sorts on demand),
// while FileSource, a stream, requires the canonical one.
//
// The Scanner is the only decoder, of this format and of the binary one
// (binary.go). TextWriter is the incremental encoder; WriteTrace below is
// the fmt-based whole-trace encoder that TextWriter's bytes are tested
// against, and the only writer that keeps a non-canonical trace's order.

const headerLine = "# cptraffic-trace v1"

// WriteTrace serializes tr to w. UE registrations are written first (in
// ascending UE order), then events in their current order.
func WriteTrace(w io.Writer, tr *Trace) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	if _, err := fmt.Fprintln(bw, headerLine); err != nil {
		return err
	}
	for _, ue := range tr.UEs() {
		if _, err := fmt.Fprintf(bw, "U %d %s\n", ue, tr.Device[ue]); err != nil {
			return err
		}
	}
	for _, e := range tr.Events {
		if _, err := fmt.Fprintf(bw, "E %d %d %s\n", e.T, e.UE, e.Type); err != nil {
			return err
		}
	}
	return bw.Flush()
}
