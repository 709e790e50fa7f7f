// Package expo renders the Prometheus text exposition for both daemons.
// The repository takes no dependencies, so the format is written by hand —
// once, here: serve and fed append their families to a Writer and the
// Writer puts them on the wire in name order.
package expo

import (
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
)

// escapeLabel escapes a label value; it returns its argument, without
// allocating, when nothing needs escaping.
var escapeLabel = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// family is one index entry: the family's name and where its "# HELP"
// line starts in the buffer. It ends where the next one emitted starts.
type family struct {
	name string
	off  int
}

// Writer appends an exposition to one buffer and remembers where each
// family starts, so the body can be written family by family in name
// order without being parsed or copied again. Every value goes through
// strconv.Append*; nothing is formatted line by line.
type Writer struct {
	buf  []byte
	fams []family
}

// NewWriter returns a Writer whose buffer holds capacity bytes before it
// has to grow; callers size it for the whole body.
func NewWriter(capacity int) *Writer {
	return &Writer{buf: make([]byte, 0, capacity), fams: make([]family, 0, 64)}
}

// keep stores b — w.buf with more appended — back into the Writer. Until
// the buffer regrows only its length changes, and storing just that keeps
// the collector's pointer-write barrier off the per-series path (~15% of
// a render, since a scrape's garbage keeps the collector running).
func (w *Writer) keep(b []byte) {
	if cap(b) == cap(w.buf) {
		w.buf = w.buf[:len(b)]
		return
	}
	w.buf = b
}

// Family starts a metric family: its HELP and TYPE lines. Every series
// appended until the next Family call belongs to it. The format allows
// one block per name, so a name used twice is a bug in the caller and
// panics.
func (w *Writer) Family(name, typ, help string) {
	for _, f := range w.fams {
		if f.name == name {
			panic("expo: metric family " + name + " emitted twice")
		}
	}
	w.fams = append(w.fams, family{name, len(w.buf)})
	b := append(append(append(append(w.buf, "# HELP "...), name...), ' '), help...)
	b = append(append(append(append(b, "\n# TYPE "...), name...), ' '), typ...)
	w.keep(append(b, '\n'))
}

// series appends a series name and its label set, given as key, value
// pairs, and returns the buffer for the caller to append the value to. A
// series belongs to the family before it; with none, WriteTo would drop
// it, so that is a bug in the caller and panics.
func (w *Writer) series(name string, labels []string) []byte {
	if len(w.fams) == 0 {
		panic("expo: series " + name + " written before any family")
	}
	b, sep := append(w.buf, name...), byte('{')
	for i := 0; i+1 < len(labels); i += 2 {
		b = append(append(append(b, sep), labels[i]...), '=', '"')
		b = append(append(b, escapeLabel.Replace(labels[i+1])...), '"')
		sep = ','
	}
	if sep == ',' {
		b = append(b, '}')
	}
	return append(b, ' ')
}

// Float writes one series with a float value in shortest round-trip form.
func (w *Writer) Float(name string, v float64, labels ...string) {
	w.keep(append(strconv.AppendFloat(w.series(name, labels), v, 'g', -1, 64), '\n'))
}

// Int writes one series with an integer value.
func (w *Writer) Int(name string, v int64, labels ...string) {
	w.keep(append(strconv.AppendInt(w.series(name, labels), v, 10), '\n'))
}

// ScalarInt writes a whole family of one unlabelled integer series.
func (w *Writer) ScalarInt(name, typ, help string, v int64) {
	w.Family(name, typ, help)
	w.Int(name, v)
}

// ScalarFloat writes a whole family of one unlabelled float series.
func (w *Writer) ScalarFloat(name, typ, help string, v float64) {
	w.Family(name, typ, help)
	w.Float(name, v)
}

// Names lists the families written so far, in emission order.
func (w *Writer) Names() []string {
	names := make([]string, len(w.fams))
	for i, f := range w.fams {
		names[i] = f.name
	}
	return names
}

// Bytes returns the exposition in emission order: the Writer's own
// buffer, capacity included.
func (w *Writer) Bytes() []byte { return w.buf }

// WriteTo writes the families to out in name order, so scrapes diff
// cleanly whatever sequence the renderers ran in. It sorts the small
// family index and writes each family's slice of the buffer in place,
// stopping at the first failed Write.
func (w *Writer) WriteTo(out io.Writer) (int64, error) {
	var n int64
	order := make([]int, len(w.fams))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return w.fams[order[a]].name < w.fams[order[b]].name })
	for _, i := range order {
		end := len(w.buf)
		if i+1 < len(w.fams) {
			end = w.fams[i+1].off
		}
		m, err := out.Write(w.buf[w.fams[i].off:end])
		n += int64(m)
		if err != nil {
			return n, err
		}
	}
	return n, nil
}

// Respond answers a scrape: the exposition content type, the body's
// exact Content-Length, then the families in name order. A failed write
// means the client has gone; there is no one left to report it to.
func (w *Writer) Respond(rw http.ResponseWriter) {
	rw.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	rw.Header().Set("Content-Length", strconv.Itoa(len(w.buf)))
	_, _ = w.WriteTo(rw)
}
