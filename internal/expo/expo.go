// Package expo renders the Prometheus text exposition for both daemons.
// The repository takes no dependencies, so the format is written by hand —
// once, here: serve and fed append their families to a Writer and the
// Writer puts them on the wire in name order.
package expo

import (
	"io"
	"net/http"
	"slices"
	"strconv"
	"strings"
)

// escapeLabel escapes a label value; it returns its argument, without
// allocating, when nothing needs escaping.
var escapeLabel = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// family is one index entry: the family's name and where its "# HELP"
// line starts in the buffer. It ends where the next one emitted starts.
// A gathered family's series then follow from column col of each Rows.
type family struct {
	name string
	off  int
	col  int // -1: not gathered
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
// a render, since a scrape's garbage keeps the collector running). A
// series belongs to the family before it; with none, writeTo would drop
// it, so that is a bug in the caller and panics.
func (w *Writer) keep(b []byte) {
	if len(w.fams) == 0 {
		panic("expo: series written before any family")
	}
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
func (w *Writer) Family(name, typ, help string) { w.Gather(name, typ, help, -1) }

// Gather starts a family whose series the Writer does not hold: Respond
// follows its header with column col of every Rows it is handed, in
// order. It sends each Rows whole, so each column must be gathered once.
func (w *Writer) Gather(name, typ, help string, col int) {
	for _, f := range w.fams {
		if f.name == name {
			panic("expo: metric family " + name + " emitted twice")
		}
	}
	w.fams = append(w.fams, family{name, len(w.buf), col})
	b := append(append(append(append(w.buf, "# HELP "...), name...), ' '), help...)
	b = append(append(append(append(b, "\n# TYPE "...), name...), ' '), typ...)
	w.keep(append(b, '\n'))
}

// series appends a series name and its label set, given as key, value
// pairs, to b for the caller to append the value to.
func series(b []byte, name string, labels []string) []byte {
	b, sep := append(b, name...), byte('{')
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

// AppendFloat appends a series line with a float value in shortest
// round-trip form to b; labels are key, value pairs.
func AppendFloat(b []byte, name string, v float64, labels ...string) []byte {
	return append(strconv.AppendFloat(series(b, name, labels), v, 'g', -1, 64), '\n')
}

// AppendInt appends a series line with an integer value to b.
func AppendInt(b []byte, name string, v int64, labels ...string) []byte {
	return append(strconv.AppendInt(series(b, name, labels), v, 10), '\n')
}

// Lines writes series lines rendered by AppendFloat and AppendInt.
func (w *Writer) Lines(b []byte) { w.keep(append(w.buf, b...)) }

// Float writes one series with a float value in shortest round-trip form.
func (w *Writer) Float(name string, v float64, labels ...string) {
	w.keep(AppendFloat(w.buf, name, v, labels...))
}

// Int writes one series with an integer value.
func (w *Writer) Int(name string, v int64, labels ...string) {
	w.keep(AppendInt(w.buf, name, v, labels...))
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
// buffer, capacity included, gathered families as headers only.
func (w *Writer) Bytes() []byte { return w.buf }

// Rows is one source's series lines for the families a Writer gathers,
// rendered ahead of the scrape and kept by the source: column c is
// Buf[Bounds[c]:Bounds[c+1]]. A Writer only reads it.
type Rows struct {
	Buf    []byte
	Bounds []int
}

// Col returns column c.
func (r *Rows) Col(c int) []byte { return r.Buf[r.Bounds[c]:r.Bounds[c+1]] }

// writeTo writes the families to out in name order, so scrapes diff
// cleanly whatever sequence the renderers ran in, each gathered family
// followed by its column of rows. Each family's slice of the buffer goes
// out in place; a column of rows comes in pieces, batched through a
// 32 KB stage that never regrows: a piece that would overfill it goes
// out in place after it. It stops at the first failed Write and counts
// the bytes out took.
func (w *Writer) writeTo(out io.Writer, rows []*Rows) (n int64, err error) {
	order := make([]int, len(w.fams))
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int { return strings.Compare(w.fams[a].name, w.fams[b].name) })
	var stage []byte
	if len(rows) > 0 {
		stage = make([]byte, 0, 36<<10) // flushed at 32 KB
	}
	write := func(p []byte) {
		if err == nil && len(p) > 0 {
			var m int
			m, err = out.Write(p)
			n += int64(m)
		}
	}
	for _, i := range order {
		end := len(w.buf)
		if i+1 < len(w.fams) {
			end = w.fams[i+1].off
		}
		write(w.buf[w.fams[i].off:end])
		if c := w.fams[i].col; c >= 0 {
			for _, r := range rows {
				if p := r.Col(c); len(stage)+len(p) > cap(stage) {
					write(stage)
					write(p)
					stage = stage[:0]
				} else if stage = append(stage, p...); len(stage) >= 32<<10 {
					write(stage)
					stage = stage[:0]
				}
			}
			write(stage)
			stage = stage[:0]
		}
	}
	return n, err
}

// Respond answers a scrape: the exposition content type, the body's
// exact Content-Length, then the families in name order, the gathered
// ones followed by their columns of rows. A failed write means the
// client has gone; there is no one left to report it to.
func (w *Writer) Respond(rw http.ResponseWriter, rows ...*Rows) {
	size := len(w.buf)
	for _, r := range rows {
		size += len(r.Buf)
	}
	rw.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	rw.Header().Set("Content-Length", strconv.Itoa(size))
	_, _ = w.writeTo(rw, rows)
}
