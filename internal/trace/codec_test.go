package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
	"testing/iotest"

	"cptraffic/internal/cp"
)

// The inputs a reader refuses beyond malformed records, each with the
// line it is on: the text grammar puts every U line before the first E
// line, timestamps are non-negative, and a line has a bounded length.
func TestReadAutoRejects(t *testing.T) {
	cases := []struct{ name, in, want string }{
		{"U-after-E", headerLine + "\nU 1 phone\nE 5 1 ATCH\nU 2 car\nE 6 2 HO\n", "line 4: registration after events"},
		{"U-after-E-behind-comments", headerLine + "\nU 1 phone\n# c\nE 5 1 ATCH\n\nU 2 car\n", "line 6: registration after events"},
		{"negative-T-first", headerLine + "\nU 1 phone\nE -5 1 ATCH\n", "line 3: negative timestamp -5"},
		{"negative-T-later", headerLine + "\nU 1 phone\nE 5 1 ATCH\nE -1 1 DTCH\n", "line 4: negative timestamp -1"},
		{"long-line", headerLine + "\nU 1 phone\n#" + strings.Repeat("x", maxLineLen) + "\nE 5 1 ATCH\n", "line 3: longer than"},
	}
	for _, tc := range cases {
		tr, err := ReadAuto(strings.NewReader(tc.in))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got (%v, %v), want an error containing %q", tc.name, tr, err, tc.want)
		}
	}
	// The longest line the bound admits, newline included.
	in := headerLine + "\nU 1 phone\n#" + strings.Repeat("x", maxLineLen-2) + "\nE 5 1 ATCH\n"
	if tr, err := ReadAuto(strings.NewReader(in)); err != nil || tr.Len() != 1 {
		t.Errorf("a line of maxLineLen bytes: got (%v, %v), want one event", tr, err)
	}
}

// A line without end is refused where the bound is crossed, not buffered:
// through ReadAuto and through FileSource, reading a 2 MiB line allocates
// a small fraction of it.
func TestScannerBoundsLineLength(t *testing.T) {
	const lineLen = 2 << 20
	in := append([]byte(headerLine+"\nU 1 phone\nE 5 1 ATCH\nE 6 1 "), bytes.Repeat([]byte{'D'}, lineLen)...)
	path := filepath.Join(t.TempDir(), "long.trace")
	if err := os.WriteFile(path, in, 0o644); err != nil {
		t.Fatal(err)
	}
	readers := []struct {
		name string
		read func() error
	}{
		{"ReadAuto", func() error {
			_, err := ReadAuto(bytes.NewReader(in))
			return err
		}},
		{"FileSource", func() error {
			src, err := NewFileSource(path)
			if err != nil {
				return err
			}
			return src.Scan(func(Event) error { return nil })
		}},
	}
	for _, r := range readers {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := r.read()
		runtime.ReadMemStats(&after)
		if err == nil || !strings.Contains(err.Error(), "line 4: longer than") {
			t.Errorf("%s: got %v, want the line-length error for line 4", r.name, err)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got > lineLen/4 {
			t.Errorf("%s allocated %d bytes refusing a %d-byte line", r.name, got, lineLen)
		}
	}
}

// Event order is the one thing the two readers treat differently: ReadAuto
// keeps whatever order the file has (Trace.ScanBatches sorts on demand),
// while FileSource is a stream and refuses an event that orders before its
// predecessor — by time or only by the (UE, type) tie-break, inside a
// batch or across a batch boundary — through Scan and ScanBatches alike,
// with the one error a caller can test for, ErrNotCanonical.
func TestFileSourceRejectsUnsorted(t *testing.T) {
	dir := t.TempDir()
	for _, at := range []int{1, DefaultBatchSize - 1, DefaultBatchSize, DefaultBatchSize + 1} {
		for _, tieOnly := range []bool{false, true} {
			tr := New()
			tr.SetDevice(1, cp.Phone)
			tr.SetDevice(2, cp.Tablet)
			for i := 0; i < 2*DefaultBatchSize+9; i++ {
				tr.Append(Event{T: cp.Millis(10 * (i + 1)), UE: 2, Type: cp.Handover})
			}
			if tieOnly {
				tr.Events[at] = Event{T: tr.Events[at-1].T, UE: 1, Type: cp.Handover}
			} else {
				tr.Events[at].T = tr.Events[at-1].T - 1
			}
			var file bytes.Buffer
			if err := WriteTrace(&file, tr); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(dir, "unsorted.trace")
			if err := os.WriteFile(path, file.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
			got, err := ReadAuto(&file)
			if err != nil || !slices.Equal(got.Events, tr.Events) {
				t.Fatalf("at %d: ReadAuto does not keep the file's order: %v", at, err)
			}

			src, err := NewFileSource(path)
			if err != nil {
				t.Fatal(err)
			}
			want := "event " + tr.Events[at].String() + " after " + tr.Events[at-1].String() + ": events out of canonical order"
			perEvent := src.Scan(func(Event) error { return nil })
			batched := src.ScanBatches(func(*Batch) error { return nil })
			for _, err := range []error{perEvent, batched} {
				if !errors.Is(err, ErrNotCanonical) || !strings.Contains(err.Error(), want) || !strings.Contains(err.Error(), path) {
					t.Fatalf("at %d (tie only: %v): got %v, want %q", at, tieOnly, err, want)
				}
			}
		}
	}
}

// encodeV1 hand-encodes a canonical trace in binary version 1, which no
// writer ever produced outside tests and the Scanner refuses: one event
// count in place of v2's chunks.
func encodeV1(tr *Trace) []byte {
	out := append([]byte(nil), binaryMagic[:]...)
	out = append(out, 1)
	out = binary.AppendUvarint(out, uint64(tr.NumUEs()))
	prevUE := cp.UEID(0)
	for _, ue := range tr.UEs() {
		out = binary.AppendUvarint(out, uint64(ue-prevUE))
		out = append(out, byte(tr.Device[ue]))
		prevUE = ue
	}
	out = binary.AppendUvarint(out, uint64(tr.Len()))
	prevT := cp.Millis(0)
	for _, e := range tr.Events {
		out = binary.AppendUvarint(out, uint64(e.T-prevT))
		out = binary.AppendUvarint(out, uint64(e.UE))
		out = append(out, byte(e.Type))
		prevT = e.T
	}
	return out
}

// Every proper prefix of a valid file: never a panic, never events the
// file does not hold. A binary prefix is always an error — the terminator
// is what makes truncation detectable. A text file cut at a line end is a
// shorter valid file.
func TestReadAutoTruncated(t *testing.T) {
	small := streamTrace(t, 6, 150, 8)
	chunked := streamTrace(t, 6, streamChunkSize+150, 8)
	var text bytes.Buffer
	if err := WriteTrace(&text, small); err != nil {
		t.Fatal(err)
	}
	for _, f := range []struct {
		name string
		tr   *Trace
		file []byte
	}{
		{"text", small, text.Bytes()},
		{"v2", chunked, writeStream(t, chunked)},
	} {
		if got, err := ReadAuto(bytes.NewReader(f.file)); err != nil || !slices.Equal(got.Events, f.tr.Events) {
			t.Fatalf("%s: the whole file does not read back: %v", f.name, err)
		}
		accepted := 0
		for n := 0; n < len(f.file); n++ {
			got, err := ReadAuto(bytes.NewReader(f.file[:n]))
			if err != nil {
				continue
			}
			accepted++
			if f.name != "text" {
				t.Fatalf("%s: prefix of %d of %d bytes accepted with %d events", f.name, n, len(f.file), got.Len())
			}
			if got.Len() > f.tr.Len() || !slices.Equal(got.Events, f.tr.Events[:got.Len()]) {
				t.Fatalf("text: prefix of %d bytes decodes to events the file does not hold", n)
			}
			if f.file[n-1] != '\n' && f.file[n] != '\n' {
				t.Fatalf("text: prefix of %d bytes, cut inside a line, accepted", n)
			}
		}
		t.Logf("%s: %d bytes, %d prefixes accepted", f.name, len(f.file), accepted)
	}
}

// A file ends where its format says it ends: behind a binary stream's
// terminator there must be nothing, so a second file after it (`cat a b`),
// garbage, or a read error after a complete file is refused — through
// ReadAuto, through either Scanner face and through FileSource — as the
// text reader refuses the same three.
func TestReadersRefuseTrailingData(t *testing.T) {
	a, b := streamTrace(t, 5, 100, 21), streamTrace(t, 4, 70, 22)
	encode := map[string]func(*Trace) []byte{
		"binary": func(tr *Trace) []byte { return writeStream(t, tr) },
		"text": func(tr *Trace) []byte {
			var buf bytes.Buffer
			if err := WriteTrace(&buf, tr); err != nil {
				t.Fatal(err)
			}
			return buf.Bytes()
		},
	}
	errRead := errors.New("device went away")
	dir := t.TempDir()
	for format, enc := range encode {
		fa := enc(a)
		if got, err := ReadAuto(bytes.NewReader(fa)); err != nil || !slices.Equal(got.Events, a.Events) {
			t.Fatalf("%s: the file alone does not read back: %v", format, err)
		}
		for _, tc := range []struct {
			name string
			in   []byte
			tail io.Reader // read after in, when set
			want string
		}{
			{"concatenated", append(slices.Clip(fa), enc(b)...), nil, "trailing data after the stream terminator"},
			{"garbage", append(slices.Clip(fa), "garbage"...), nil, "trailing data after the stream terminator"},
			{"read-error", fa, iotest.ErrReader(errRead), ""},
		} {
			name := format + "/" + tc.name
			check := func(face string, err error) {
				t.Helper()
				switch {
				case tc.tail != nil && !errors.Is(err, errRead):
					t.Errorf("%s via %s: got %v, want the read error", name, face, err)
				case tc.tail == nil && err == nil:
					t.Errorf("%s via %s: accepted", name, face)
				case tc.tail == nil && format == "binary" && !strings.Contains(err.Error(), tc.want):
					t.Errorf("%s via %s: got %v, want %q", name, face, err, tc.want)
				}
			}
			open := func() io.Reader {
				if tc.tail != nil {
					return io.MultiReader(bytes.NewReader(tc.in), tc.tail)
				}
				return bytes.NewReader(tc.in)
			}
			_, err := ReadAuto(open())
			check("ReadAuto", err)
			sc, err := NewScanner(open())
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			for bt := NewBatch(7); sc.ScanBatch(bt); {
			}
			check("ScanBatch", sc.Err())
			if tc.tail != nil {
				continue // a file has no read error to inject
			}
			path := filepath.Join(dir, "trailing.trace")
			if err := os.WriteFile(path, tc.in, 0o644); err != nil {
				t.Fatal(err)
			}
			src, err := NewFileSource(path)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			check("FileSource", src.ScanBatches(func(*Batch) error { return nil }))
		}
	}
}

// Short reads change nothing: a reader that returns one byte at a time,
// half of what was asked, or its last data together with io.EOF yields the
// events and registry of a plain read, for either format, a small file and
// one of several binary chunks; and a reader that times out after its
// first read surfaces iotest.ErrTimeout — for a binary file, whole in that
// first read, only because the reader looks behind the terminator.
func TestScannerShortReads(t *testing.T) {
	wrappers := []struct {
		name string
		wrap func(io.Reader) io.Reader
	}{
		{"OneByteReader", iotest.OneByteReader},
		{"HalfReader", iotest.HalfReader},
		{"DataErrReader", iotest.DataErrReader},
	}
	for _, tr := range []*Trace{streamTrace(t, 6, 150, 8), streamTrace(t, 20, 3*streamChunkSize+17, 1)} {
		var text bytes.Buffer
		if err := WriteTrace(&text, tr); err != nil {
			t.Fatal(err)
		}
		for format, file := range map[string][]byte{"text": text.Bytes(), "binary": writeStream(t, tr)} {
			for _, w := range wrappers {
				got, err := ReadAuto(w.wrap(bytes.NewReader(file)))
				if err != nil || !reflect.DeepEqual(got.Device, tr.Device) || !slices.Equal(got.Events, tr.Events) {
					t.Fatalf("%s, %d bytes, through %s: %v", format, len(file), w.name, err)
				}
			}
			if _, err := ReadAuto(iotest.TimeoutReader(bytes.NewReader(file))); !errors.Is(err, iotest.ErrTimeout) {
				t.Errorf("%s, %d bytes, through TimeoutReader: got %v, want %v", format, len(file), err, iotest.ErrTimeout)
			}
		}
	}
}

// failAfter is an io.Writer that accepts n bytes and then fails.
type failAfter struct{ n int }

var errDiskFull = errors.New("disk full")

func (w *failAfter) Write(p []byte) (int, error) {
	if len(p) <= w.n {
		w.n -= len(p)
		return len(p), nil
	}
	n := w.n
	w.n = 0
	return n, errDiskFull
}

// A destination that fails after N bytes, for every N short of a small
// file (everything sits in the buffer until Close) and a spread of N across
// a file larger than the buffer (Write and WriteBatch flush on the way):
// under both writers and both faces the failure comes back from a write or
// from Close, never swallowed.
func TestWritersSurfaceWriteErrors(t *testing.T) {
	small := streamTrace(t, 4, 60, 9)
	large := streamTrace(t, 4, 40000, 10)
	for _, wr := range incrementalWriters {
		for _, face := range writeFaces {
			midStream := 0 // failures that came back before Close
			write := func(tr *Trace, w io.Writer) error {
				enc := wr.new(w)
				if err := tr.Devices(enc.SetDevice); err != nil {
					return err
				}
				for evs := tr.Events; len(evs) > 0; {
					n := min(len(evs), DefaultBatchSize)
					if err := face.put(enc, evs[:n]); err != nil {
						midStream++
						return err
					}
					evs = evs[n:]
				}
				return enc.Close()
			}
			for _, tr := range []*Trace{small, large} {
				var whole bytes.Buffer
				if err := write(tr, &whole); err != nil {
					t.Fatal(err)
				}
				size := whole.Len()
				step := 1
				if tr == large {
					step = size/97 + 1
				}
				for n := 0; n < size; n += step {
					if err := write(tr, &failAfter{n: n}); !errors.Is(err, errDiskFull) {
						t.Fatalf("%s.%s: destination failed after %d of %d bytes, writer returned %v",
							wr.name, face.name, n, size, err)
					}
				}
				if err := write(tr, &failAfter{n: size}); err != nil {
					t.Fatalf("%s.%s: destination with room for all %d bytes: %v", wr.name, face.name, size, err)
				}
			}
			if midStream == 0 {
				t.Errorf("%s.%s: every failure surfaced from Close; the large file never outgrew the buffer", wr.name, face.name)
			}
		}
	}
}
