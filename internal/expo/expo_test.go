package expo

import (
	"bytes"
	"errors"
	"flag"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"
)

// updateGolden regenerates testdata/histogram.golden instead of comparing:
//
//	go test ./internal/expo -run TestHistogramGolden -update
var updateGolden = flag.Bool("update", false, "rewrite golden files with current results")

// sortFamiliesRef is the renderer this package replaced, kept as the
// reference: it re-parses a rendered exposition on "# HELP " and sorts
// the whole family chunks as strings.
func sortFamiliesRef(text string) string {
	chunks := strings.Split(text, "# HELP ")
	fams := make([]string, 0, len(chunks))
	for _, c := range chunks {
		if c != "" {
			fams = append(fams, "# HELP "+c)
		}
	}
	sort.Strings(fams)
	return strings.Join(fams, "")
}

// wire returns what writeTo puts on the wire with no gathered rows.
func wire(t *testing.T, w *Writer) string {
	t.Helper()
	var b bytes.Buffer
	n, err := w.writeTo(&b, nil)
	if err != nil || n != int64(b.Len()) {
		t.Fatalf("writeTo = %d, %v; wrote %d bytes", n, err, b.Len())
	}
	return b.String()
}

// emit writes one small family per name, in the order given.
func emit(names []string) *Writer {
	w := NewWriter(0)
	for i, name := range names {
		w.Family(name, "gauge", "Help for "+name+".")
		w.Int(name, int64(i), "k", strconv.Itoa(i))
	}
	return w
}

func TestWriteToOrdersFamiliesLikeTheReference(t *testing.T) {
	// Names where one is a prefix of another, or differs from it only
	// past a shared stem, are where a name sort and the reference's
	// whole-chunk sort could disagree.
	names := []string{
		"heracles_instances", "heracles_instance_up", "heracles_instance",
		"heracles_shards", "heracles_shard_instances", "heracles_shard",
		"a", "a_b", "aa", "z_total",
	}
	sorted := append([]string(nil), names...)
	sort.Strings(sorted)
	want := wire(t, emit(sorted))

	reversed := make([]string, len(names))
	for i, name := range sorted {
		reversed[len(names)-1-i] = name
	}
	rotated := append(append([]string(nil), sorted[4:]...), sorted[:4]...)
	for _, order := range [][]string{names, sorted, reversed, rotated} {
		w := emit(order)
		if got := w.Names(); strings.Join(got, " ") != strings.Join(order, " ") {
			t.Fatalf("Names = %v, want emission order %v", got, order)
		}
		got := wire(t, w)
		if ref := sortFamiliesRef(string(w.Bytes())); got != ref {
			t.Fatalf("emitted as %v: writeTo differs from the reference sort\ngot:\n%s\nwant:\n%s", order, got, ref)
		}
		// The series carry their emission index, so compare headers only.
		if gotOrder, wantOrder := helpLines(got), helpLines(want); gotOrder != wantOrder {
			t.Fatalf("emitted as %v: families come out as\n%s\nwant\n%s", order, gotOrder, wantOrder)
		}
	}
}

func helpLines(text string) string {
	var out []string
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, "# HELP ") {
			out = append(out, line)
		}
	}
	return strings.Join(out, "\n")
}

func TestSeriesLabelsAndValues(t *testing.T) {
	w := NewWriter(0)
	w.Family("m", "gauge", "Help.")
	w.Int("m", -3)
	w.Float("m", 0.25, "a", "plain")
	w.Float("m", 1e21, "a", "q\"b\\n\n", "b", "")
	w.ScalarInt("n_total", "counter", "N.", 1<<53+1)
	w.ScalarFloat("o", "gauge", "O.", 1e-7)
	want := "# HELP m Help.\n# TYPE m gauge\n" +
		"m -3\n" +
		"m{a=\"plain\"} 0.25\n" +
		"m{a=\"q\\\"b\\\\n\\n\",b=\"\"} 1e+21\n" +
		"# HELP n_total N.\n# TYPE n_total counter\nn_total 9007199254740993\n" +
		"# HELP o O.\n# TYPE o gauge\no 1e-07\n"
	if got := string(w.Bytes()); got != want {
		t.Fatalf("rendered:\n%s\nwant:\n%s", got, want)
	}
}

func TestEmptyWriter(t *testing.T) {
	w := NewWriter(0)
	if got := wire(t, w); got != "" {
		t.Fatalf("empty writer wrote %q", got)
	}
	if names := w.Names(); len(names) != 0 {
		t.Fatalf("empty writer lists families %v", names)
	}
	rec := httptest.NewRecorder()
	w.Respond(rec)
	if got := rec.Header().Get("Content-Length"); got != "0" || rec.Body.Len() != 0 {
		t.Fatalf("empty response: Content-Length %q, %d body bytes", got, rec.Body.Len())
	}
}

// mustPanic runs f and fails the test unless it panics.
func mustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s did not panic", what)
		}
	}()
	f()
}

// One family block per name is a format rule, and a series with no
// family would be dropped by writeTo: both are bugs in the renderer that
// calls the Writer, so they stop the test that exercises it.
func TestFormatViolationsPanic(t *testing.T) {
	mustPanic(t, "a second Family call with the same name", func() {
		w := emit([]string{"a", "b"})
		w.Family("a", "gauge", "Again.")
	})
	mustPanic(t, "a histogram under a name already used", func() {
		w := emit([]string{"a"})
		w.Histogram("a", "Again.", new(Histogram))
	})
	mustPanic(t, "a series before any family", func() {
		NewWriter(0).Int("orphan", 1)
	})
}

// failAfter accepts n writes and refuses every later one.
type failAfter struct{ n, calls int }

var errGone = errors.New("client gone")

func (f *failAfter) Write(p []byte) (int, error) {
	f.calls++
	if f.calls > f.n {
		return 0, errGone
	}
	return len(p), nil
}

func TestWriteToStopsAtFirstFailedWrite(t *testing.T) {
	w := emit([]string{"c", "a", "d", "b"})
	out := &failAfter{n: 2}
	n, err := w.writeTo(out, nil)
	if !errors.Is(err, errGone) || out.calls != 3 {
		t.Fatalf("writeTo = %d, %v after %d writes; want the error on the third write and none after", n, err, out.calls)
	}
	if want := int64(len(sortFamiliesRef(string(w.Bytes()))) / 2); n != want {
		t.Fatalf("writeTo reports %d bytes, want the two families written (%d)", n, want)
	}

	// With gathered rows: the header goes out, the staged column fails,
	// and the count is what out took, not what the stage held.
	w = NewWriter(0)
	w.ScalarInt("a", "gauge", "A.", 1)
	w.Gather("b", "gauge", "B.", 0)
	w.ScalarInt("c", "gauge", "C.", 3)
	rows := []*Rows{{Buf: AppendInt(nil, "b", 1), Bounds: []int{0, 4}}, {Buf: AppendInt(nil, "b", 2), Bounds: []int{0, 4}}}
	out = &failAfter{n: 2}
	n, err = w.writeTo(out, rows)
	if !errors.Is(err, errGone) || out.calls != 3 {
		t.Fatalf("with rows: writeTo = %d, %v after %d writes; want the error on the third write and none after", n, err, out.calls)
	}
	if want := int64(strings.Index(string(w.Bytes()), "# HELP c")); n != want {
		t.Fatalf("with rows: writeTo reports %d bytes, want the a and b headers (%d)", n, want)
	}
}

// TestRespondSendsLengthNotChunks scrapes a body larger than net/http's
// own buffering over a real connection: the response must carry the
// exact Content-Length and no chunked transfer-encoding.
func TestRespondSendsLengthNotChunks(t *testing.T) {
	w := NewWriter(0)
	for _, name := range []string{"b_seconds", "a_total"} {
		w.Family(name, "gauge", "Help.")
		for i := 0; i < 2000; i++ {
			w.Float(name, float64(i)/8, "instance", "i"+strconv.Itoa(i))
		}
	}
	ts := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, _ *http.Request) { w.Respond(rw) }))
	defer ts.Close()
	resp, err := ts.Client().Get(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if string(body) != sortFamiliesRef(string(w.Bytes())) {
		t.Fatalf("body is not the families in name order (%d bytes)", len(body))
	}
	if got := resp.Header.Get("Content-Length"); got != strconv.Itoa(len(body)) || resp.ContentLength != int64(len(body)) {
		t.Fatalf("Content-Length = %q, body is %d bytes", got, len(body))
	}
	if len(resp.TransferEncoding) != 0 {
		t.Fatalf("response is %v-encoded, want identity", resp.TransferEncoding)
	}
	if got := resp.Header.Get("Content-Type"); got != "text/plain; version=0.0.4; charset=utf-8" {
		t.Fatalf("Content-Type = %q", got)
	}
}

// goldenObservations covers both ends of the bucket ladder: at and
// below the 1µs boundary, a negative duration (clamped to 0), the last
// finite bound exactly, and two observations past it.
func goldenObservations(h *Histogram) {
	for _, d := range []time.Duration{
		500 * time.Nanosecond, time.Microsecond, 2 * time.Microsecond, 3 * time.Microsecond,
		-time.Second, 1500 * time.Microsecond, 250 * time.Millisecond,
		8388608 * time.Microsecond, 8388609 * time.Microsecond, time.Hour,
	} {
		h.Observe(d)
	}
}

func TestHistogramBucketsAndRender(t *testing.T) {
	var h Histogram
	h.Observe(500 * time.Nanosecond) // <= 1µs: bucket 0
	h.Observe(1 * time.Microsecond)  // boundary: still bucket 0
	h.Observe(2 * time.Microsecond)  // bucket 1
	h.Observe(3 * time.Microsecond)  // bucket 2 (le 4µs)
	h.Observe(-time.Second)          // clamped to 0: bucket 0
	h.Observe(time.Hour)             // beyond 2^23µs: +Inf
	// Between bounds an observation belongs to the bucket above: le is
	// an upper bound, so it must not be truncated to whole microseconds.
	h.Observe(1500 * time.Nanosecond)               // bucket 1 (le 2µs)
	h.Observe(2*time.Microsecond + time.Nanosecond) // bucket 2 (le 4µs)
	w := NewWriter(0)
	w.Histogram("x_seconds", "test family.", &h)
	out := string(w.Bytes())
	for _, want := range []string{
		"# TYPE x_seconds histogram",
		`x_seconds_bucket{le="1e-06"} 3`,
		`x_seconds_bucket{le="2e-06"} 5`,
		`x_seconds_bucket{le="4e-06"} 7`,
		`x_seconds_bucket{le="+Inf"} 8`,
		"x_seconds_count 8",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered histogram missing %q:\n%s", want, out)
		}
	}
}

// TestHistogramGolden pins the histogram family byte for byte. The file
// was generated by the fmt.Fprintf renderer this package replaced.
func TestHistogramGolden(t *testing.T) {
	var h Histogram
	goldenObservations(&h)
	w := NewWriter(0)
	w.Histogram("x_seconds", "A histogram with fixed observations.", &h)
	w.Histogram("empty_seconds", "No observations.", new(Histogram))

	path := filepath.Join("testdata", "histogram.golden")
	if *updateGolden {
		if err := os.WriteFile(path, w.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(w.Bytes(), want) {
		t.Fatalf("histogram differs from %s (rerun with -update if the change is intended)\ngot:\n%s", path, w.Bytes())
	}

	// _bucket, _sum and _count series carry longer names than their
	// family; they must still travel with it when families are sorted.
	got := wire(t, w)
	if ref := sortFamiliesRef(string(want)); got != ref {
		t.Fatalf("sorted histograms differ from the reference sort:\n%s", got)
	}
	if !strings.HasPrefix(got, "# HELP empty_seconds ") || !strings.HasSuffix(got, "x_seconds_count 10\n") {
		t.Fatalf("histogram series left their family:\n%s", got)
	}
}

// TestGatheredRowsRespond gathers pre-rendered rows under families of a
// Writer that also holds families of its own: the response must be what
// one Writer holding every series would send, with its exact length,
// whether the pieces fit the stage or not. Pieces that overfill the stage
// go out beside it: writeTo allocates as much whatever the pieces' sizes,
// so the stage never regrows.
func TestGatheredRowsRespond(t *testing.T) {
	ref := func(sources, perCol int) string {
		w := NewWriter(0)
		w.ScalarInt("m_count", "gauge", "Sources.", int64(sources))
		for c, name := range []string{"z_rows", "a_rows"} {
			w.Family(name, "gauge", "Rows of "+name+".")
			for s := range sources {
				for j := range perCol {
					w.Int(name, int64(j), "src", strconv.Itoa(s), "col", strconv.Itoa(c))
				}
			}
		}
		return sortFamiliesRef(string(w.Bytes()))
	}
	allocs := -1.0
	for _, tc := range []struct{ sources, perCol int }{{3, 1}, {0, 0}, {5, 0}, {40, 30}, {12, 300}, {2, 2000}} {
		rows := make([]*Rows, tc.sources)
		for s := range rows {
			r := &Rows{Bounds: []int{0}}
			for c, name := range []string{"z_rows", "a_rows"} {
				for j := range tc.perCol {
					r.Buf = AppendInt(r.Buf, name, int64(j), "src", strconv.Itoa(s), "col", strconv.Itoa(c))
				}
				r.Bounds = append(r.Bounds, len(r.Buf))
			}
			rows[s] = r
		}
		w := NewWriter(0)
		w.Gather("z_rows", "gauge", "Rows of z_rows.", 0)
		w.ScalarInt("m_count", "gauge", "Sources.", int64(tc.sources))
		w.Gather("a_rows", "gauge", "Rows of a_rows.", 1)
		rec := httptest.NewRecorder()
		w.Respond(rec, rows...)
		want := ref(tc.sources, tc.perCol)
		if got := rec.Body.String(); got != want {
			t.Fatalf("%d sources × %d lines: gathered body differs\ngot:\n%.2000s\nwant:\n%.2000s", tc.sources, tc.perCol, got, want)
		}
		if got := rec.Header().Get("Content-Length"); got != strconv.Itoa(len(want)) {
			t.Fatalf("%d sources × %d lines: Content-Length %s for a %d-byte body", tc.sources, tc.perCol, got, len(want))
		}
		if got := testing.AllocsPerRun(5, func() { w.writeTo(io.Discard, rows) }); allocs < 0 {
			allocs = got
		} else if tc.sources > 0 && got != allocs {
			t.Fatalf("%d sources × %d lines: writeTo allocates %v times, %v for 3 small sources", tc.sources, tc.perCol, got, allocs)
		}
	}
}
