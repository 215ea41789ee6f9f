package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"runtime"
	"testing"

	"cptraffic/internal/cp"
	"cptraffic/internal/sm"
	"cptraffic/internal/trace"
)

// pinnedFitDigests are sha256 digests of ModelSet.Save for the world
// toyTrace(60 UEs, 6 h, seed 11) with clusterOptSmall, keyed
// "method/sketchK". They were recorded on the commit before Build's
// ordering work was rewritten (sort once, merge after) and are absolute:
// every other byte-identity test compares two paths that both run
// Build, so a change that moves both sides passes them all. A digest
// here changes only when the fitted bytes change — which is a bug unless
// the change set out to alter the model, in which case re-record them
// and say so. Recorded on amd64; architectures whose compilers fuse
// x*y+z into one rounding (arm64, ppc64le, s390x) may legitimately
// produce other floats, so the test skips there.
var pinnedFitDigests = map[string]string{
	"base/0":   "79310f577980d7c13a4ab2cb79003d949f7b8c917140de0d167466f08ac92cb5",
	"base/256": "f602f21345c3ad83cd36ae2fae8c706a9a9d5d2ce25bf2747fff4872e1cb1dc0",
	"v1/0":     "c53c4a7c39344b2048507ab79b11ca220b40054384c029e210ff5225867b8d9d",
	"v1/256":   "accf2ceffa1decb7794497594c3b0f66f95600d170cfc7f88bdf62aabaf8cdf7",
	"v2/0":     "021618b570ce6d9b67cd9162ca5e7de38e231450325f86e58b9b7f38a3515222",
	"v2/256":   "7783b8de9cbd60514829112e7fab49317d19d0c8881025374898e03586be14c1",
	"ours/0":   "51e450bed0114748757e5794392d1b9f1398d8598497f75bc55e35d47e5bfdb5",
	"ours/256": "ed93e9fc46c64bd62bb35dbc48ca8056a431c637d6924fcd5fe0ffd3b21e5410",
}

// pinnedFitOptions mirrors baseline.Options (which core cannot import)
// for the four Table 3 methods. The three SojournExp methods are the
// ones whose float folds depend on the (UE, seq) sample order.
func pinnedFitOptions(method string) FitOptions {
	free := []cp.EventType{cp.Handover, cp.TrackingAreaUpdate}
	switch method {
	case "base":
		return FitOptions{Machine: sm.EMMECM(), SojournKind: SojournExp, FreeEvents: free, NoClustering: true, Method: "base"}
	case "v1":
		return FitOptions{Machine: sm.EMMECM(), SojournKind: SojournExp, FreeEvents: free, Cluster: clusterOptSmall(), Method: "v1"}
	case "v2":
		return FitOptions{Machine: sm.LTE2Level(), SojournKind: SojournExp, Cluster: clusterOptSmall(), Method: "v2"}
	default:
		return FitOptions{Machine: sm.LTE2Level(), SojournKind: SojournTable, Cluster: clusterOptSmall(), Method: "ours"}
	}
}

// pinnedLargeFitDigests are the same digests for toyTrace(400 UEs, 24 h,
// seed 11), keyed the same way, recorded on the commit before Build's
// value and count sorts became radix sorts. For ours/0 the small world
// above sorts 2 689 lists, 355 of them at or above the radix cutoff and
// none longer than 2 707 values; this one sorts 54 811, 6 418 above the
// cutoff (2.8 M of its 3.4 M values), the longest 77 176 — hour and
// global pools where the radix passes and the skipped constant bytes
// decide bytes. ours sorts in place on the
// SojournTable path; v2 sorts only the first-event offsets and must keep
// folding in (UE, seq) order.
var pinnedLargeFitDigests = map[string]string{
	"v2/0":   "1530384b3136b11d1076aa428d192eed6e02c596e73228e253c2a2b7e8ab9cc8",
	"ours/0": "09874b730d091ec51d167f81359245ed0d5aaac7c6fccc906a9608eaa3ede77a",
}

// TestFitModelDigestPinned pins the absolute model bytes of every
// method, exact and sketched, fitted unsharded and as three hash shards
// merged in reverse order — on the small world, and for two methods on
// the large one.
func TestFitModelDigestPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("digests recorded on amd64, running on %s", runtime.GOARCH)
	}
	digest := func(b []byte) string {
		sum := sha256.Sum256(b)
		return hex.EncodeToString(sum[:])
	}
	for _, world := range []struct {
		name   string
		tr     *trace.Trace
		pinned map[string]string
	}{
		{"60 UEs x 6 h", toyTrace(t, 60, 6*cp.Hour, 11), pinnedFitDigests},
		{"400 UEs x 24 h", toyTrace(t, 400, 24*cp.Hour, 11), pinnedLargeFitDigests},
	} {
		for _, method := range []string{"base", "v1", "v2", "ours"} {
			for _, k := range []int{0, 256} {
				opt := pinnedFitOptions(method)
				opt.SketchK = k
				name := fmt.Sprintf("%s/%d", method, k)
				want, ok := world.pinned[name]
				if !ok {
					continue
				}
				ms, err := Fit(world.tr, opt)
				if err != nil {
					t.Fatal(err)
				}
				if got := digest(modelBytes(t, ms)); got != want {
					t.Errorf("%s, %s unsharded: digest %s, pinned %s", world.name, name, got, want)
				}
				sharded := mergeAndBuild(t, shardPartials(t, world.tr, 3, opt), []int{2, 1, 0})
				if got := digest(sharded); got != want {
					t.Errorf("%s, %s 3 shards merged in reverse: digest %s, pinned %s", world.name, name, got, want)
				}
			}
		}
	}
}

// pinnedGenerateDigest is the sha256 of trace.WriteBinaryTrace over
// Generate(fitToy(60 UEs, 6 h, seed 11), 100 UEs from hour 5 for 50 h,
// seed 17). It was recorded on the commit before Generate's assembly
// moved from 16-byte events to packed 8-byte keys and is absolute for
// the same reason pinnedFitDigests is: TestStreamMatchesGenerate and
// TestSourceMatchesGenerate compare two paths that share the engine, so
// a change that moves both passes them. The 50 h span makes the time
// field of the sort key 28 bits wide (more than two radix digits), the
// start hour makes t0 non-zero, and neither 3 nor 8 divides the
// population. Worker count must not move a byte, and the interpreted
// oracle (interpTrace) hashes to the same constant.
const pinnedGenerateDigest = "568d9f999d2915f919f89fb5d74fe7cc00ebe5e0c5ee1b9dfb965c3d3603254e"

func TestGenerateDigestPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("digest recorded on amd64, running on %s", runtime.GOARCH)
	}
	ms := fitToy(t, 60, 6*cp.Hour, 11, FitOptions{})
	opt := GenOptions{NumUEs: 100, StartHour: 5, Duration: 50 * cp.Hour, Seed: 17}
	check := func(name string, tr *trace.Trace) {
		t.Helper()
		if !tr.Sorted() { // WriteBinaryTrace would sort a copy and hide it
			t.Fatalf("%s: trace not in canonical order", name)
		}
		var buf bytes.Buffer
		if err := trace.WriteBinaryTrace(&buf, tr); err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(buf.Bytes())
		if got := hex.EncodeToString(sum[:]); got != pinnedGenerateDigest {
			t.Errorf("%s: %d events, digest %s, pinned %s", name, tr.Len(), got, pinnedGenerateDigest)
		}
	}
	for _, workers := range []int{1, 3, 8} {
		opt.Workers = workers
		tr, err := Generate(ms, opt)
		if err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("workers=%d", workers), tr)
	}
	// The oracle is pinned to the same constant, so it cannot drift
	// together with the engine it checks.
	check("interpreted oracle", interpTrace(t, ms, opt))
}

// pinnedStreamDigests are the sha256 digests of the same fixture as
// pinnedGenerateDigest streamed NewSource → writer, keyed by writer. They
// were recorded on the commit before the generator-backed sources moved
// from the k-way loser tree to windowed packed-key assembly, and are
// absolute: TestSourceMatchesGenerate and TestBatchedMatchesStreamed
// compare ScanBatches and Generate with each other, so a change that moves
// them together passes both. The binary digest equals pinnedGenerateDigest
// because WriteBinaryTrace is a StreamWriter over the sorted trace.
var pinnedStreamDigests = map[string]string{
	"text":   "c2a196d2781167d953b283992c4fdcda2d4aa6bc0e2f909245661d3bb60e9210",
	"binary": pinnedGenerateDigest,
}

// streamDigest pipes src into the named writer and returns the sha256 of
// the bytes written.
func streamDigest(t *testing.T, src trace.EventSource, codec string) string {
	t.Helper()
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
	return hex.EncodeToString(sum[:])
}

// TestSourceDigestPinned pins the absolute bytes of the streaming source
// through both writers — and of the interpreted oracle through the same writers, so the text constant, too,
// holds both engines.
func TestSourceDigestPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("digests recorded on amd64, running on %s", runtime.GOARCH)
	}
	ms := fitToy(t, 60, 6*cp.Hour, 11, FitOptions{})
	opt := GenOptions{NumUEs: 100, StartHour: 5, Duration: 50 * cp.Hour, Seed: 17}
	src, err := NewSource(ms, opt)
	if err != nil {
		t.Fatal(err)
	}
	for name, src := range map[string]trace.EventSource{"source": src, "interpreted oracle": interpTrace(t, ms, opt)} {
		for _, codec := range []string{"text", "binary"} {
			if got := streamDigest(t, src, codec); got != pinnedStreamDigests[codec] {
				t.Errorf("%s %s: digest %s, pinned %s", name, codec, got, pinnedStreamDigests[codec])
			}
		}
	}
}

// pinnedCheckpointDigests are sha256 digests of PartialFit.Encode taken
// mid-scan — after the first half of toyTrace(60 UEs, 6 h, seed 11) —
// for three option sets. They were recorded before the ingest tallies
// moved off hash maps and onto each UE's sink, and are absolute:
// TestPartialCodecRoundTrip and the resume tests compare Encode with
// DecodePartial∘Encode, so a change that moves both passes them. A
// mid-scan cut keeps in-flight extractors and buffered prefixes on the
// wire beside the counts, pools and (sketched) moments; base exercises a
// second machine's state count.
var pinnedCheckpointDigests = []struct {
	method  string
	sketchK int
	digest  string
}{
	{"ours", 0, "7aee055262f0732e4981ada8a7131aaff2f0bc75df4012c8be434fbba5dbdf76"},
	{"ours", 256, "ce316a306819264fd2424eef38b9853f85b81a17b4de6a4adbc43f29503f531c"},
	{"base", 0, "095083fb575d0da862f8ec55be4a97885a1809db09ab5ac96f384e6a47f74e56"},
}

func TestPartialCheckpointDigestPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("digests recorded on amd64, running on %s", runtime.GOARCH)
	}
	tr := toyTrace(t, 60, 6*cp.Hour, 11)
	half := int64(tr.Len() / 2)
	stop := errors.New("stop")
	for _, c := range pinnedCheckpointDigests {
		opt := pinnedFitOptions(c.method)
		opt.SketchK = c.sketchK
		pf, err := NewPartialFit(opt)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		err = pf.AddSourceWithCheckpoints(tr, half, func(int64) error {
			if err := pf.Encode(&buf); err != nil {
				return err
			}
			return stop
		})
		if !errors.Is(err, stop) {
			t.Fatalf("%s/%d: scan ended with %v", c.method, c.sketchK, err)
		}
		sum := sha256.Sum256(buf.Bytes())
		if got := hex.EncodeToString(sum[:]); got != c.digest {
			t.Errorf("%s/%d: checkpoint of %d bytes, digest %s, pinned %s", c.method, c.sketchK, buf.Len(), got, c.digest)
		}
	}
}
