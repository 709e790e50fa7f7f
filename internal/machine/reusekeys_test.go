package machine

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"
	"time"

	"heracles/internal/cache"
	"heracles/internal/hw"
	"heracles/internal/lat"
	"heracles/internal/workload"
)

// perturb changes v, a settable struct field, to the nearest different
// value of its kind and returns a function that puts the old value back:
// a slice loses its last element, and a pointer points to a copy of what
// it pointed to. A kind it does not know fails the test: a field of a new
// kind in a stage argument needs a case here and a comparison in the
// stage's key.
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
	case reflect.Slice:
		if v.Len() == 0 {
			t.Fatalf("%s: an empty slice has no shorter value", name)
		}
		v.Set(v.Slice(0, v.Len()-1))
	case reflect.Pointer:
		c := reflect.New(v.Type().Elem())
		c.Elem().Set(v.Elem())
		v.Set(c)
	default:
		t.Fatalf("%s: no perturbation for kind %s", name, v.Kind())
	}
	return func() { v.Set(old) }
}

// eachField calls fn for every field of the struct p points to, except
// those named in skip (which the caller handles itself).
func eachField(p any, fn func(name string, field reflect.Value), skip ...string) {
	v := reflect.ValueOf(p).Elem()
	for i := 0; i < v.NumField(); i++ {
		if name := v.Type().Field(i).Name; !slices.Contains(skip, name) {
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
//
// The peer-record subtests ask the same of a record found through a stage
// memo: before every call the machine forgets its own records and a
// peer solves the base arguments afresh, so only the peer's record,
// found by the key's fingerprint, can answer — equal keys must meet in
// the memo, and a key moved by one field must not be answered there.
func TestStageReuseKeysCoverEveryField(t *testing.T) {
	stageReuseKeysCoverEveryField(t, false)
	t.Run("peer-record", func(t *testing.T) { stageReuseKeysCoverEveryField(t, true) })
}

// forgetStages empties every stage record of m.
func forgetStages(m *Machine) {
	for s := range m.reuse.sockets {
		e := &m.reuse.sockets[s]
		e.kind, e.demands, e.hasRef = e.kind[:0], e.demands[:0], false
	}
	m.reuse.lat = latEntry{}
}

func stageReuseKeysCoverEveryField(t *testing.T, viaPeer bool) {
	cfg := hw.DefaultConfig()
	m := New(cfg)
	r := &m.reuse
	var peer *Machine
	if viaPeer {
		peer = New(cfg)
		memo := NewStageMemo(&cfg, 2)
		m.ShareStages(memo)
		peer.ShareStages(memo)
	}
	// ask returns a stage call on m; through a peer, the peer first solves
	// the stage on a copy of the base arguments.
	ask := func(onM, onPeer func(*Machine)) func() {
		return func() {
			if peer != nil {
				forgetStages(m)
				forgetStages(peer)
				onPeer(peer)
			}
			onM(m)
		}
	}

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
		base := slices.Clone(loads)
		call := ask(func(x *Machine) { x.resolveFrequencies(0, loads) },
			func(x *Machine) { x.resolveFrequencies(0, base) })
		for _, core := range []int{0, 12, 17} { // an LC core, a capped BE core, an idle core
			eachField(&loads[core], fieldMustMiss(t, call, &r.freqSolves))
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
		base := make([]cache.Demand, len(demands))
		for i, d := range demands {
			d.Components = slices.Clone(d.Components)
			base[i] = d
		}
		call := ask(func(x *Machine) { x.resolveCache(0, solver, demands, true) },
			func(x *Machine) { x.resolveCache(0, solver, base, true) })
		for i := range demands {
			d := &demands[i]
			eachField(d, fieldMustMiss(t, call, &r.cacheSolves)) // Components: one fewer
			// Components are edited where they lie, behind the same slice
			// pointer, as callers that tune a workload spec do.
			if len(d.Components) < 2 {
				t.Fatalf("demand %d has %d components; the test needs at least two", i, len(d.Components))
			}
			for j := range d.Components {
				eachField(&d.Components[j], fieldMustMiss(t, call, &r.cacheSolves))
			}
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
		pb, lb, sb, db := p, lambda, servers, dt
		call := ask(func(x *Machine) { x.epochLatency(p, lambda, servers, dt) },
			func(x *Machine) { x.epochLatency(pb, lb, sb, db) })
		eachField(&p, fieldMustMiss(t, call, &r.latSolves))
		for name, arg := range map[string]any{"lambda": &lambda, "servers": &servers, "dt": &dt} {
			fieldMustMiss(t, call, &r.latSolves)(name, reflect.ValueOf(arg).Elem())
		}
	})
}

// TestEpochKeyCoversEveryField is the same obligation for the epoch
// record, which answers a whole Step: between two epochs the record would
// answer, one input of Step is moved by the smallest step of its kind —
// every field of LCTask, of BETask but its outputs, of workload.LC and
// LCSpec, of workload.BE and BESpec and of each cache.Component, found by
// reflection; an element of a core list edited in place; the presence of
// the LC task and the number of BE tasks; the machine's epoch,
// service-time feedback, degradation and BE egress ceiling. The
// step must miss the record and leave the state a machine restored from
// the same snapshot, which remembers nothing, leaves. The key holds values
// only, so a task or workload replaced by an equal copy may be answered,
// and must leave that same state.
//
// The sibling subtest asks the same of another machine's record found
// through the group's memo: before every moved step a twin — restored
// from the machine's snapshot, with its own copies of the workloads, in
// the machine's group — steps the base epoch and must answer it for the
// machine, and the machine forgets its own record, so that only the
// twin's can answer the moved one.
func TestEpochKeyCoversEveryField(t *testing.T) {
	epochKeyCoversEveryField(t, false)
	t.Run("sibling", func(t *testing.T) { epochKeyCoversEveryField(t, true) })
}

func epochKeyCoversEveryField(t *testing.T, viaSibling bool) {
	lcs, bes := privateWorkloads(t)
	cfg := hw.DefaultConfig()
	m := New(cfg)
	m.SetLC(lcs["websearch"])
	m.AddBE(bes["brain"], workload.PlaceDedicated)
	m.AddBE(bes["streetview"], workload.PlaceDedicated)
	m.SetLoad(0.4)
	m.Partition(10)
	m.PartitionWays(4)
	m.SetBEFreqCap(2.0)
	m.SetDegrade(1.2)
	m.SetBENetCeil(0.5)
	if viaSibling {
		m.ShareStages(NewStageMemo(&cfg, 2))
	}

	// restoreWith restores m's snapshot, resolving workloads, whatever
	// their (perhaps perturbed) names, to m's own through copy.
	restoreWith := func(copyLC func(*workload.LC) *workload.LC, copyBE func(*workload.BE) *workload.BE) *Machine {
		next := 0
		r, err := RestoreMachine(m.Snapshot(),
			func(string) *workload.LC { return copyLC(m.lc.WL) },
			func(string) *workload.BE { next++; return copyBE(m.bes[next-1].WL) })
		if err != nil {
			t.Fatalf("restore: %v", err)
		}
		return r
	}
	// restore is the cold reference: m's very workloads.
	restore := func() *Machine {
		return restoreWith(func(wl *workload.LC) *workload.LC { return wl },
			func(wl *workload.BE) *workload.BE { return wl })
	}
	// twin is a member of m's group equal to m in value only.
	twin := func() *Machine {
		tw := restoreWith(func(wl *workload.LC) *workload.LC {
			c := *wl
			c.Spec.CacheComponents = slices.Clone(c.Spec.CacheComponents)
			return &c
		}, func(wl *workload.BE) *workload.BE {
			c := *wl
			c.Spec.CacheComponents = slices.Clone(c.Spec.CacheComponents)
			return &c
		})
		tw.ShareStages(m.reuse.memo)
		return tw
	}
	forget := func() { m.rec.valid = false }
	// settle steps until the record answers twice running, so that the
	// next epoch, left alone, would be answered too.
	settle := func(what string) {
		for e, run := 0, 0; run < 2; e++ {
			if e == 200 {
				t.Fatalf("before %s: the record answered no two epochs running in 200", what)
			}
			h := m.EpochHits()
			m.Step()
			if m.EpochHits() > h {
				run++
			} else {
				run = 0
			}
		}
		if !viaSibling {
			return
		}
		// The twin steps the base epoch in full (m's record forgotten, it
		// finds none) and must answer it for m.
		forget()
		twin().Step()
		h := m.SiblingHits()
		forget()
		m.Step()
		if m.SiblingHits() == h {
			t.Fatalf("before %s: the twin's record did not answer the epoch it holds", what)
		}
		forget()
	}
	// check moves one input and steps m beside a cold restore of the moved
	// state; unless mayHit, no record may answer m.
	check := func(what string, mayHit bool, mutate func() (restore func())) {
		t.Helper()
		settle(what)
		undo := mutate()
		cold := restore()
		h := m.EpochHits() + m.SiblingHits()
		m.Step()
		cold.Step()
		if !mayHit && m.EpochHits()+m.SiblingHits() != h {
			t.Errorf("%s changed, yet an epoch record answered", what)
		} else if warm, ref := stateJSON(t, m), stateJSON(t, cold); !bytes.Equal(warm, ref) {
			t.Errorf("%s changed: the step differs from a cold machine's\nwarm: %s\ncold: %s", what, warm, ref)
		}
		undo()
	}
	mustMiss := func(what string, mutate func() (restore func())) { check(what, false, mutate) }
	// field moves a reflected field; a pointer moves to an equal copy.
	field := func(name string, f reflect.Value) {
		check(name, f.Kind() == reflect.Pointer, func() func() { return perturb(t, name, f) })
	}
	// element edits one entry of a list where it lies, behind the same
	// slice pointer, as callers that move cores or tune a spec do.
	element := func(name string, list reflect.Value) {
		if list.Len() == 0 {
			t.Fatalf("%s is empty; the test needs an element to edit", name)
		}
		for j := 0; j < list.Len(); j++ {
			e := list.Index(j)
			if e.Kind() == reflect.Struct {
				eachField(e.Addr().Interface(), field)
				continue
			}
			// A core id: the next core, wrapping to stay on the machine.
			mustMiss(fmt.Sprintf("%s[%d]", name, j), func() func() {
				old := e.Int()
				e.SetInt((old + 1) % int64(cfg.TotalCores()))
				return func() { e.SetInt(old) }
			})
		}
	}

	field("Machine.epoch", reflect.ValueOf(&m.epoch).Elem())
	field("Machine.lastService", reflect.ValueOf(&m.lastService).Elem())
	field("Machine.degrade", reflect.ValueOf(&m.degrade).Elem())
	field("Machine.beNetCeilGBs", reflect.ValueOf(&m.beNetCeilGBs).Elem())

	lc := m.lc
	eachField(lc, field)
	element("LCTask.Cores", reflect.ValueOf(lc.Cores))
	eachField(lc.WL, field, "Spec")
	eachField(&lc.WL.Spec, field)
	element("LCSpec.CacheComponents", reflect.ValueOf(lc.WL.Spec.CacheComponents))
	check("the LC task, for an equal copy", true, func() func() {
		c := *m.lc
		c.Cores = slices.Clone(c.Cores)
		m.lc = &c
		return func() { m.lc = lc }
	})

	for i, be := range m.bes {
		eachField(be, field, "LastRate", "LastNorm", "LastHit", "CPUSec")
		element("BETask.Cores", reflect.ValueOf(be.Cores))
		eachField(be.WL, field, "Spec")
		eachField(&be.WL.Spec, field)
		element("BESpec.CacheComponents", reflect.ValueOf(be.WL.Spec.CacheComponents))
		check(fmt.Sprintf("BE task %d, for an equal copy", i), true, func() func() {
			c := *be
			c.Cores = slices.Clone(c.Cores)
			m.bes[i] = &c
			return func() { m.bes[i] = be }
		})
	}
	mustMiss("the LC task's presence", func() func() {
		m.lc = nil
		return func() { m.lc = lc }
	})
	mustMiss("BE task count", func() func() {
		all := m.bes
		m.bes = all[:len(all)-1]
		return func() { m.bes = all }
	})
}
