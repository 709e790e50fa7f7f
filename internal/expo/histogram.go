package expo

import (
	"math"
	"math/bits"
	"strconv"
	"sync/atomic"
	"time"
)

// Latency histograms for the control plane's own hot paths: lock-free
// atomic buckets on power-of-two microsecond bounds, rendered in the
// Prometheus histogram text format. Observations are wall-clock
// control-plane timings — they are operational telemetry, deliberately
// outside the deterministic simulation state, and never travel in
// checkpoints.

// histBuckets is the finite bucket count: upper bounds 1µs, 2µs, 4µs, …
// 2^23µs (~8.4s), plus the implicit +Inf bucket. Power-of-two bounds
// make bucket choice a single bit-length instruction.
const histBuckets = 24

// Histogram is a concurrency-safe Prometheus histogram. The zero value
// is ready to use.
type Histogram struct {
	counts [histBuckets + 1]atomic.Int64 // per-bucket (non-cumulative); last is +Inf
	sumNs  atomic.Int64
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	us := uint64(d / time.Microsecond)
	idx := 0
	if us > 1 {
		idx = bits.Len64(us - 1) // first i with us <= 2^i
	}
	if idx > histBuckets {
		idx = histBuckets // +Inf
	}
	h.counts[idx].Add(1)
	h.sumNs.Add(int64(d))
}

// Histogram writes h as one family: cumulative _bucket series, _sum and
// _count.
func (w *Writer) Histogram(name, help string, h *Histogram) {
	w.Family(name, "histogram", help)
	var cum int64
	for i := 0; i <= histBuckets; i++ {
		cum += h.counts[i].Load()
		le := "+Inf"
		if i < histBuckets {
			le = strconv.FormatFloat(math.Ldexp(1e-6, i), 'g', -1, 64)
		}
		w.Int(name+"_bucket", cum, "le", le)
	}
	w.Float(name+"_sum", float64(h.sumNs.Load())/1e9)
	w.Int(name+"_count", cum)
}
