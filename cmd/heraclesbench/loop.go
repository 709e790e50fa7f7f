//go:build linux

package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// op is one generated client operation: an HTTP request against a
// daemon or the argument vector of a batch command. Everything the
// program under test receives comes out of an op.
type op struct {
	Kind   string   // route or command class, e.g. "put-load"
	Method string   // HTTP ops
	Path   string   // HTTP ops; joined to the target's base URL
	Body   string   // HTTP ops
	Argv   []string // batch ops
	Inst   int      // index into the workload's pool, -1 when unused
	Value  float64  // the generated value a later check compares against
	ID     uint64   // seed-derived request id, carried on the op's span
}

// span is one traced interval. Spans of a run form a tree through
// Parent: run → workload → round → phase → one span per client request.
type span struct {
	ID      uint64 `json:"id"`
	Parent  uint64 `json:"parent"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"` // since the tracer was created
	EndNs   int64  `json:"end_ns"`
	Req     uint64 `json:"req,omitempty"`
}

// tracer collects spans in memory; they are written out when the
// benchmark ends. A nil tracer records nothing.
type tracer struct {
	t0   time.Time
	next atomic.Uint64

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// begin opens a span and returns it; end it with finish.
func (t *tracer) begin(parent uint64, name string) span {
	if t == nil {
		return span{}
	}
	return span{ID: t.next.Add(1), Parent: parent, Name: name, StartNs: t.now()}
}

func (t *tracer) finish(s span) {
	if t == nil {
		return
	}
	s.EndNs = t.now()
	t.add([]span{s})
}

func (t *tracer) add(ss []span) {
	if t == nil || len(ss) == 0 {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, ss...)
	t.mu.Unlock()
}

// phaseSpec describes one closed-loop phase: each of workers issues its
// next op only after the previous one completed, until the time bound
// (live workloads) or the per-worker count bound (fixed work) is hit.
// The phase runs as a sequence of short slices, each bracketed by host
// probes, so every sample is tagged with how fast the host was then.
type phaseSpec struct {
	name    string
	workers int
	dur     time.Duration // 0 = unbounded
	count   int           // ops per worker, 0 = unbounded
	// sliceOps is the slice length of a count-bounded phase, in ops per
	// worker; time-bounded phases use sliceDur.
	sliceOps int
	next     func(worker int) func() op
	do       func(worker int, o op) error
	// abort is asked after a failed op whether the phase can go on; a
	// non-nil answer (the daemon died) ends the phase and the run.
	abort func() error
}

// sliceDur is the slice length of a time-bounded phase: short enough
// that the host rarely changes speed inside one, long enough that the
// two probes around it cost under a tenth of it.
const sliceDur = 250 * time.Millisecond

// slice is one probe-bracketed stretch of a phase.
type slice struct {
	wall  float64   // seconds
	ms    []float64 // wall-clock latency of each completed op
	kinds []string
}

// phaseResult is what a phase measured. Times are host-normalised (see
// hostSlow) unless named raw.
type phaseResult struct {
	ms        []float64 // latency of each completed op
	rawMs     []float64 // the same ops' wall-clock latency
	kinds     []string  // kinds[i] is the class of ms[i]
	attempted int
	failed    int
	wall      float64 // seconds spent measuring; probes excluded
	rawWall   float64 // the same in wall-clock seconds
	firstErr  error   // first failed op, for the report
	fatal     error   // set when abort ended the phase
}

// meanProbeMs is the host probe that accounts for wall-clock seconds
// rawWall shrinking to normalised seconds wall: hostSlow inverted. It is
// the slice-length-weighted mean probe of the stretch.
func meanProbeMs(rawWall, wall float64) float64 {
	return probeRefMs * (1 + (rawWall/wall-1)/hostSensitivity)
}

// runPhase drives the phase slice by slice, each slice bracketed by host
// probes, and merges the normalised samples. With a tracer, every op
// also leaves a span under parent.
func runPhase(ctx context.Context, spec phaseSpec, tr *tracer, parent uint64) phaseResult {
	var res phaseResult
	nexts := make([]func() op, spec.workers)
	done := make([]int, spec.workers) // ops issued per worker
	for w := range nexts {
		nexts[w] = spec.next(w)
	}
	before := hostProbe()
	for {
		// The phase's time bound counts measuring time only.
		left := spec.dur - time.Duration(res.rawWall*float64(time.Second))
		if spec.dur > 0 && left <= 0 {
			break
		}
		if spec.count > 0 && done[0] >= spec.count {
			break
		}
		sl, stop := runSlice(ctx, spec, nexts, done, min(left, sliceDur), tr, parent, &res)
		after := hostProbe()
		slow := hostSlow((before + after) / 2)
		before = after
		for _, ms := range sl.ms {
			res.ms = append(res.ms, ms/slow)
		}
		res.rawMs = append(res.rawMs, sl.ms...)
		res.kinds = append(res.kinds, sl.kinds...)
		res.rawWall += sl.wall
		res.wall += sl.wall / slow
		if stop {
			break
		}
	}
	return res
}

// runSlice runs every worker until the slice's bound and joins them.
func runSlice(ctx context.Context, spec phaseSpec, nexts []func() op, done []int, d time.Duration, tr *tracer, parent uint64, res *phaseResult) (slice, bool) {
	type workerOut struct {
		ms                []float64
		kinds             []string
		spans             []span
		attempted, failed int
		firstErr, fatal   error
	}
	outs := make([]workerOut, spec.workers)
	var stop atomic.Bool
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for w := 0; w < spec.workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			out := &outs[w]
			for n := 0; ; n++ {
				if spec.count > 0 && (done[w] >= spec.count || (spec.sliceOps > 0 && n >= spec.sliceOps)) {
					break
				}
				if stop.Load() || ctx.Err() != nil || (spec.dur > 0 && !time.Now().Before(deadline)) {
					break
				}
				o := nexts[w]()
				done[w]++
				var sp span
				if tr != nil {
					sp = tr.begin(parent, o.Kind)
					sp.Req = o.ID
				}
				t0 := time.Now()
				err := spec.do(w, o)
				dt := time.Since(t0)
				if tr != nil {
					sp.EndNs = sp.StartNs + int64(dt)
					out.spans = append(out.spans, sp)
				}
				out.attempted++
				if err != nil {
					out.failed++
					if out.firstErr == nil {
						out.firstErr = fmt.Errorf("%s %s%s: %w", o.Kind, o.Path, strings.Join(o.Argv, " "), err)
					}
					if spec.abort != nil {
						if fatal := spec.abort(); fatal != nil {
							out.fatal = fatal
							stop.Store(true)
							break
						}
					}
					continue
				}
				out.ms = append(out.ms, float64(dt)/1e6)
				out.kinds = append(out.kinds, o.Kind)
			}
		}(w)
	}
	wg.Wait()
	sl := slice{wall: time.Since(start).Seconds()}
	for i := range outs {
		out := &outs[i]
		sl.ms = append(sl.ms, out.ms...)
		sl.kinds = append(sl.kinds, out.kinds...)
		res.attempted += out.attempted
		res.failed += out.failed
		if res.firstErr == nil {
			res.firstErr = out.firstErr
		}
		if res.fatal == nil {
			res.fatal = out.fatal
		}
		tr.add(out.spans)
	}
	return sl, res.fatal != nil || ctx.Err() != nil
}

// msOfKind filters a phase's samples to one op class.
func (r phaseResult) msOfKind(kind string) []float64 {
	var out []float64
	for i, k := range r.kinds {
		if k == kind {
			out = append(out, r.ms[i])
		}
	}
	return out
}

// target is one HTTP endpoint reached over a bounded set of keep-alive
// connections; conn(i) gives worker i its own reusable response buffer.
type target struct {
	base   string
	client *http.Client
	bufs   []bytes.Buffer
}

// newTarget caps the connections to base at conns: the closed loop
// never has more requests in flight than that.
func newTarget(base string, conns int) *target {
	tr := &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}
	return &target{
		base:   base,
		client: &http.Client{Transport: tr, Timeout: 60 * time.Second},
		bufs:   make([]bytes.Buffer, conns),
	}
}

func (t *target) close() { t.client.CloseIdleConnections() }

// do issues one request as worker w and returns the status and the
// whole body. The body aliases the worker's buffer and is valid until
// the worker's next call.
func (t *target) do(w int, method, path, body string) (int, []byte, error) {
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, t.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != "" {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := t.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	buf := &t.bufs[w]
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil {
		return resp.StatusCode, nil, err
	}
	return resp.StatusCode, buf.Bytes(), nil
}

// expect issues the request and turns any other status into an error.
func (t *target) expect(w int, want int, method, path, body string) ([]byte, error) {
	status, data, err := t.do(w, method, path, body)
	if err != nil {
		return nil, err
	}
	if status != want {
		return nil, fmt.Errorf("status %d, want %d: %s", status, want, firstLine(data))
	}
	return data, nil
}

func firstLine(b []byte) string {
	s := strings.TrimSpace(string(b))
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		s = s[:i]
	}
	if len(s) > 200 {
		s = s[:200]
	}
	return s
}

// Host-normalised time.
//
// The reference box is a small VM on a shared host, and what the host
// gives it changes by the second: a neighbour on the sibling
// hyperthread or an oversubscribed host slows the same code by up to
// 3x for seconds to minutes. Wall-clock medians of identical runs then
// disagree by 20-40%, which no bound can absorb. So every phase runs as
// short slices, each bracketed by hostProbe, and every latency and wall
// time is divided by the slowdown its slice saw. What is reported is
// time at the reference host's undisturbed speed; on an undisturbed
// host the factor is 1 and the values are plain wall-clock time.

// probeRefMs is how long hostProbe takes on the undisturbed reference
// box (2 vCPUs of a Xeon at 2.1 GHz); it defines the speed the reported
// times refer to.
const probeRefMs = 5.5

// hostSensitivity is how much of the probe's slowdown the programs
// under test show: the probe keeps a core's execution units saturated
// and so suffers more from a busy sibling thread than server code that
// also waits on memory and wake-ups. Fitted once over ~150 runs of the
// four workloads (values between 0.6 and 1.0 all cut the run-to-run
// spread by 2-5x; 0.75 was best overall). It is a property of the probe,
// not of any workload.
const hostSensitivity = 0.75

// hostSlow converts a probe time into the slowdown factor applied to
// measurements taken beside it.
func hostSlow(probeMs float64) float64 {
	return 1 + hostSensitivity*(probeMs/probeRefMs-1)
}

// probeSink keeps the probe's result observable so the compiler cannot
// drop the loop.
var probeSink atomic.Uint64

// hostProbe runs a fixed, allocation-free loop of independent integer
// chains and small-table lookups on every CPU at once and returns the
// mean time the CPUs took, in ms. A single dependency chain would not
// do: it leaves most of a core idle and so does not notice a neighbour
// sharing the core, which is what slows the programs under test.
func hostProbe() float64 {
	n := runtime.NumCPU()
	times := make([]float64, n)
	var wg sync.WaitGroup
	for g := 0; g < n; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			t0 := time.Now()
			var tab [2048]uint64
			for i := range tab {
				tab[i] = uint64(i) * 0x9E3779B97F4A7C15
			}
			a, b, c, d, e, f := uint64(1), uint64(2), uint64(3), uint64(4), uint64(5), uint64(6+g)
			for i := 0; i < 3_000_000; i++ {
				a = a*6364136223846793005 + 1442695040888963407
				b = b*3935559000370003845 + 2691343689449507681
				c ^= tab[a>>53]
				d += tab[b>>53] ^ c
				e = e*2862933555777941757 + d
				f ^= e >> 29
				if f&1023 == 0 {
					tab[e>>53] = f
				}
			}
			probeSink.Add(a + b + c + d + e + f)
			times[g] = float64(time.Since(t0)) / 1e6
		}(g)
	}
	wg.Wait()
	var sum float64
	for _, t := range times {
		sum += t
	}
	return sum / float64(n)
}
