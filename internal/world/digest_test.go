package world

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"runtime"
	"testing"

	"cptraffic/internal/cp"
	"cptraffic/internal/trace"
)

// pinnedWorldDigest is the sha256 of trace.WriteBinaryTrace over
// Generate(100 UEs, 50 h from 05:30, seed 17). It was recorded on the
// commit before Generate's assembly moved from 16-byte events to packed
// 8-byte keys and is absolute: TestSourceMatchesGenerate and
// TestBatchedMatchesStreamed compare two paths that share the simulator,
// so a change that moves both passes them. The span makes the time field
// of the sort key 28 bits wide, the offset is not a whole hour, and
// neither 3 nor 8 divides the population. Recorded on amd64 (see
// core's pinnedFitDigests for why other architectures may differ).
const pinnedWorldDigest = "2c0c56074db7b918534a17bab5b044471b51748a1847a6862a84164d475ac95c"

func TestWorldDigestPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("digest recorded on amd64, running on %s", runtime.GOARCH)
	}
	for _, workers := range []int{1, 3, 8} {
		tr, err := Generate(Options{
			NumUEs: 100, Duration: 50 * cp.Hour, Offset: 5*cp.Hour + 30*cp.Minute, Seed: 17,
			Workers: workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		if !tr.Sorted() { // WriteBinaryTrace would sort a copy and hide it
			t.Fatalf("workers=%d: trace not in canonical order", workers)
		}
		var buf bytes.Buffer
		if err := trace.WriteBinaryTrace(&buf, tr); err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(buf.Bytes())
		if got := hex.EncodeToString(sum[:]); got != pinnedWorldDigest {
			t.Errorf("workers=%d: %d events, digest %s, pinned %s", workers, tr.Len(), got, pinnedWorldDigest)
		}
	}
}

// pinnedWorldStreamDigests are the sha256 digests of the same fixture as
// pinnedWorldDigest streamed NewSource → writer, keyed by writer. They
// were recorded on the commit before the simulation-backed source moved
// from the k-way loser tree to windowed packed-key assembly, and are
// absolute: the tests that compare ScanBatches with Generate cannot see
// both move. The binary
// digest equals pinnedWorldDigest because WriteBinaryTrace is a
// StreamWriter over the sorted trace.
var pinnedWorldStreamDigests = map[string]string{
	"text":   "d4a2225e7d909c0d6a44fd46c4948935e89a0e769948be1cacb1340f3e65f1e9",
	"binary": pinnedWorldDigest,
}

// TestSourceDigestPinned pins the absolute bytes of the streaming source
// through both writers.
func TestSourceDigestPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("digests recorded on amd64, running on %s", runtime.GOARCH)
	}
	src, err := NewSource(Options{
		NumUEs: 100, Duration: 50 * cp.Hour, Offset: 5*cp.Hour + 30*cp.Minute, Seed: 17,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, codec := range []string{"text", "binary"} {
		var buf bytes.Buffer
		var w interface {
			trace.EventSink
			Close() error
		}
		if codec == "text" {
			w = trace.NewTextWriter(&buf)
		} else {
			w = trace.NewStreamWriter(&buf)
		}
		if err := trace.CopyBatches(w, src); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(buf.Bytes())
		if got := hex.EncodeToString(sum[:]); got != pinnedWorldStreamDigests[codec] {
			t.Errorf("%s: digest %s, pinned %s", codec, got, pinnedWorldStreamDigests[codec])
		}
	}
}
