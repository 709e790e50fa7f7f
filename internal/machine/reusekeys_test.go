package machine

import (
	"math"
	"reflect"
	"testing"
	"time"

	"heracles/internal/cache"
	"heracles/internal/hw"
	"heracles/internal/lat"
	"heracles/internal/workload"
)

// perturb changes v, a settable struct field, to the nearest different
// value of its kind and returns a function that puts the old value back.
// A kind it does not know fails the test: a field of a new kind in a
// stage argument needs a case here and a comparison in the stage's key.
func perturb(t *testing.T, name string, v reflect.Value) (restore func()) {
	t.Helper()
	old := reflect.New(v.Type()).Elem()
	old.Set(v)
	switch v.Kind() {
	case reflect.Float64:
		v.SetFloat(math.Nextafter(v.Float(), math.Inf(1)))
	case reflect.Int, reflect.Int64:
		v.SetInt(v.Int() + 1)
	case reflect.Uint64:
		v.SetUint(v.Uint() ^ 1)
	case reflect.Bool:
		v.SetBool(!v.Bool())
	case reflect.String:
		v.SetString(v.String() + "'")
	default:
		t.Fatalf("%s: no perturbation for kind %s", name, v.Kind())
	}
	return func() { v.Set(old) }
}

// eachField calls fn for every field of the struct p points to, except
// those named in skip (which the caller handles itself).
func eachField(p any, skip string, fn func(name string, field reflect.Value)) {
	v := reflect.ValueOf(p).Elem()
	for i := 0; i < v.NumField(); i++ {
		if name := v.Type().Field(i).Name; name != skip {
			fn(v.Type().String()+"."+name, v.Field(i))
		}
	}
}

// TestStageReuseKeysCoverEveryField is the executable form of stage
// reuse's proof obligation — a stage's stored solution answers only for
// the arguments that produced it. Each stage is handed the same arguments
// twice, which must reuse, and then the same arguments with one field
// changed by the smallest step, which must run the solver; the fields are
// enumerated by reflection over hw.CoreLoad, cache.Demand, cache.Component
// and lat.ServiceParams, so a field added to one of them without a
// comparison in the stage's key fails here. It matters beyond one sweep
// point: calibration keeps one machine's stage memory across 42 probes.
func TestStageReuseKeysCoverEveryField(t *testing.T) {
	cfg := hw.DefaultConfig()
	m := New(cfg)
	r := &m.reuse

	// mustMiss runs the stage on its base arguments until the stored
	// solution answers (no solver call), applies the mutation, and
	// requires the next call to run the solver.
	mustMiss := func(t *testing.T, what string, call func(), solves *uint64, mutate func() (restore func())) {
		t.Helper()
		call()
		s := *solves
		call()
		if *solves != s {
			t.Fatalf("%s: repeating the base arguments ran the solver again", what)
		}
		restore := mutate()
		call()
		restore()
		if *solves == s {
			t.Errorf("%s changed, yet the stored solution answered", what)
		}
	}

	// fieldMustMiss is mustMiss for one reflected field, perturbed.
	fieldMustMiss := func(t *testing.T, call func(), solves *uint64) func(string, reflect.Value) {
		return func(name string, f reflect.Value) {
			mustMiss(t, name, call, solves, func() func() { return perturb(t, name, f) })
		}
	}

	t.Run("frequency", func(t *testing.T) {
		loads := make([]hw.CoreLoad, cfg.CoresPerSocket)
		for i := range loads {
			switch {
			case i < 10:
				loads[i] = hw.CoreLoad{Activity: 0.55}
			case i < 16:
				loads[i] = hw.CoreLoad{Activity: 0.9, CapGHz: 1.8}
			}
		}
		call := func() { m.resolveFrequencies(0, loads) }
		for _, core := range []int{0, 12, 17} { // an LC core, a capped BE core, an idle core
			eachField(&loads[core], "", fieldMustMiss(t, call, &r.freqSolves))
		}
		mustMiss(t, "core count", call, &r.freqSolves, func() func() {
			full := loads
			loads = loads[:len(loads)-1]
			return func() { loads = full }
		})
	})

	t.Run("cache", func(t *testing.T) {
		solver := cache.Solver{WayMB: cfg.WayMB(), Ways: cfg.LLCWays}
		demands := []cache.Demand{
			{AccessRate: 1e9, WayMask: cache.MaskOfWays(4, 16), LoadScale: 1,
				Components: append([]cache.Component(nil), workload.Websearch().CacheComponents...)},
			{AccessRate: 2e9, WayMask: cache.MaskOfWays(0, 4),
				Components: append([]cache.Component(nil), workload.Brain().CacheComponents...)},
		}
		call := func() { m.resolveCache(0, solver, demands, true) }
		for i := range demands {
			d := &demands[i]
			eachField(d, "Components", fieldMustMiss(t, call, &r.cacheSolves))
			// Components are edited where they lie, behind the same slice
			// pointer, as callers that tune a workload spec do.
			if len(d.Components) < 2 {
				t.Fatalf("demand %d has %d components; the test needs at least two", i, len(d.Components))
			}
			for j := range d.Components {
				eachField(&d.Components[j], "", fieldMustMiss(t, call, &r.cacheSolves))
			}
			mustMiss(t, "component count", call, &r.cacheSolves, func() func() {
				full := d.Components
				d.Components = full[:len(full)-1]
				return func() { d.Components = full }
			})
		}
		mustMiss(t, "demand count", call, &r.cacheSolves, func() func() {
			full := demands
			demands = demands[:1]
			return func() { demands = full }
		})
	})

	t.Run("latency", func(t *testing.T) {
		p := lat.ServiceParams{Mean: 10 * time.Millisecond, Sigma: 0.5,
			NetTime: 20 * time.Microsecond, TailAdd: time.Millisecond, TailProb: 0.2}
		lambda, servers, dt := 2000.0, 30, time.Second
		call := func() { m.epochLatency(p, lambda, servers, dt) }
		eachField(&p, "", fieldMustMiss(t, call, &r.latSolves))
		for name, arg := range map[string]any{"lambda": &lambda, "servers": &servers, "dt": &dt} {
			fieldMustMiss(t, call, &r.latSolves)(name, reflect.ValueOf(arg).Elem())
		}
	})
}
