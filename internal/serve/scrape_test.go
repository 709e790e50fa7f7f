package serve

import (
	"bytes"
	"fmt"
	"math"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"heracles/internal/core"
	"heracles/internal/expo"
	"heracles/internal/slo"
)

// rowsOf gathers an instance in status s as a block of one — copying
// from old's lines, when old is not nil, the families whose values held —
// and returns its rows and its lines by family.
func rowsOf(s *Status, old *instanceRows) (*instanceRows, [][]byte) {
	inst := &Instance{id: s.ID, hub: NewHub(), status: cloneStatus(*s), gen: 1}
	inst.hub.dropped.Add(s.DroppedEvents)
	if old != nil {
		r := *old
		r.acts = slices.Clone(r.acts) // exposition refills its rows' acts in place
		r.gen = 0
		inst.rows = &r
	}
	var c scrapeCache
	c.gather([]*Instance{inst}, &fleetStats{})
	out := make([][]byte, len(instanceFamilies))
	for k := range out {
		out[k] = inst.rows.blk.line(0, k)
	}
	return inst.rows, out
}

// cloneStatus copies s deeply enough that moving a field of the copy
// leaves s as it was.
func cloneStatus(s Status) Status {
	s.BEs = slices.Clone(s.BEs)
	s.Actions = slices.Clone(s.Actions)
	return s
}

// statusLeaves lists every scalar field reachable in a Status as an
// index path, a nil pointer standing for the value it would point at,
// each slice element separately and each slice as a whole (an element
// appended).
func statusLeaves(v reflect.Value, path []int, name string, out *[]leaf) {
	switch v.Kind() {
	case reflect.Pointer:
		if v.IsNil() {
			v = reflect.New(v.Type().Elem())
		}
		*out = append(*out, leaf{path: slices.Clone(path), name: name, kind: reflect.Pointer})
		statusLeaves(v.Elem(), path, name, out)
	case reflect.Struct:
		for i := range v.NumField() {
			field := v.Type().Field(i).Name
			if name != "" {
				field = name + "." + field
			}
			statusLeaves(v.Field(i), append(path, i), field, out)
		}
	case reflect.Slice:
		*out = append(*out, leaf{path: slices.Clone(path), name: name, kind: reflect.Slice})
		for i := range v.Len() {
			statusLeaves(v.Index(i), append(path, i), name, out)
		}
	case reflect.Array:
		for i := range v.Len() {
			statusLeaves(v.Index(i), append(path, i), name, out)
		}
	default:
		*out = append(*out, leaf{path: slices.Clone(path), name: name, kind: v.Kind()})
	}
}

type leaf struct {
	path []int
	name string // dotted field path, element indices dropped
	kind reflect.Kind
}

// at walks path from v, allocating the nil pointers it passes.
func at(v reflect.Value, path []int) reflect.Value {
	for _, i := range path {
		for v.Kind() == reflect.Pointer {
			if v.IsNil() {
				v.Set(reflect.New(v.Type().Elem()))
			}
			v = v.Elem()
		}
		if v.Kind() == reflect.Struct {
			v = v.Field(i)
		} else {
			v = v.Index(i)
		}
	}
	return v
}

// moves returns the values a leaf of this kind is moved to, from was:
// the states and health names the rows map to numbers, the float values
// whose print differs from a plain compare's view (-0, NaN), and a
// plain step.
func moves(was reflect.Value) []any {
	switch was.Kind() {
	case reflect.String:
		return []any{StateRunning, StateDone, StateCrashed, HealthHealthy, HealthDegraded, HealthQuarantined, was.String() + "x", ""}
	case reflect.Float64:
		f := was.Float()
		return []any{f + 1, -f, math.Copysign(0, -1), 0.0, math.NaN(), f * 3}
	case reflect.Bool:
		return []any{!was.Bool()}
	case reflect.Int, reflect.Int64:
		return []any{was.Int() + 1}
	case reflect.Uint64:
		return []any{was.Uint() + 1}
	}
	return nil
}

// TestRowsKeyCoversEveryPrintedField moves every field of a Status, one
// at a time and to every value that prints differently, and holds the
// scrape's reuse to the bytes: an instance's rows are reused whole
// exactly when a cold render of the moved status prints them again, and
// rows rendered from the old ones — each family's lines copied when its
// values held — are the cold render's bytes. A field the rows start
// printing without entering rowValues fails here, and the set of fields
// that move the bytes is pinned below. The id is not moved: rows live on
// the Instance, whose id never changes, and
// TestScrapeMatchesColdRenderUnderMutations reuses an id after a delete.
func TestRowsKeyCoversEveryPrintedField(t *testing.T) {
	// rowValues must hold every value the table prints: fill's appends
	// past it would land in a copy the compare never sees.
	if n := familyAt[len(instanceFamilies)]; n != len(rowValues{}) {
		t.Fatalf("instanceFamilies print %d values; rowValues holds %d", n, len(rowValues{}))
	}
	printed := map[string]bool{}
	for b, base := range goldenStatuses() {
		var leaves []leaf
		statusLeaves(reflect.ValueOf(&base).Elem(), nil, "", &leaves)
		old, oldRows := rowsOf(&base, nil)
		for _, lf := range leaves {
			if lf.name == "ID" {
				continue
			}
			var targets []func(reflect.Value)
			switch lf.kind {
			case reflect.Pointer:
				targets = append(targets, func(v reflect.Value) { v.SetZero() })
			case reflect.Slice:
				targets = append(targets, func(v reflect.Value) {
					v.Set(reflect.Append(v, reflect.New(v.Type().Elem()).Elem()))
				})
				if lf.name == "Actions" {
					targets = append(targets, func(v reflect.Value) {
						v.Set(reflect.Append(v, reflect.ValueOf(ActionCount{Loop: "net", Action: "grow", Count: 1})))
					})
				}
			default:
				was := at(reflect.ValueOf(ptr(cloneStatus(base))).Elem(), lf.path)
				for _, m := range moves(was) {
					targets = append(targets, func(v reflect.Value) { v.Set(reflect.ValueOf(m).Convert(v.Type())) })
				}
			}
			for _, move := range targets {
				moved := cloneStatus(base)
				move(at(reflect.ValueOf(&moved).Elem(), lf.path))
				cold, coldRows := rowsOf(&moved, nil)
				reused := old.vals == cold.vals && slices.Equal(base.Actions, moved.Actions)
				if same := slices.EqualFunc(oldRows, coldRows, bytes.Equal); reused != same {
					t.Fatalf("status %d, %s moved: rows reused %v, but a cold render prints them %s",
						b, lf.name, reused, map[bool]string{true: "again", false: "differently"}[same])
				}
				if _, warm := rowsOf(&moved, old); !slices.EqualFunc(warm, coldRows, bytes.Equal) {
					t.Fatalf("status %d, %s moved: rows rendered from the old ones\n%s\ndiffer from a cold render\n%s",
						b, lf.name, bytes.Join(warm, nil), bytes.Join(coldRows, nil))
				}
				if !reused && b == 0 { // the one golden status with every printed field set
					printed[lf.name] = true
				}
			}
		}
	}
	want := []string{"Actions", "Actions.Action", "Actions.Count", "Actions.Loop", "DroppedEvents", "Epoch",
		"FaultsInjected", "Health", "Last.BECores", "Last.BEEnabled", "Last.BEWays", "Last.DRAMUtil",
		"Last.EMU", "Last.LinkUtil", "Last.Load", "Last.P95Ms", "Last.PowerFracTDP", "Last.SLOMs", "Last.Slack",
		"Last.TailMs", "Restarts", "SLO.BudgetSpent", "SLO.Burn", "SLO.Objective",
		"SLO.Page", "SLO.Ticket", "SLO.Violations", "State"}
	got := make([]string, 0, len(printed))
	for name := range printed {
		got = append(got, name)
	}
	sort.Strings(got)
	if !slices.Equal(got, want) {
		t.Fatalf("fields whose move changes the rows:\n%v\nwant\n%v", got, want)
	}
}

func ptr[T any](v T) *T { return &v }

// scrapeBody GETs /metrics from h, checking the body carries its length.
func scrapeBody(t testing.TB, h http.Handler) string {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if got := rec.Header().Get("Content-Length"); got != strconv.Itoa(rec.Body.Len()) {
		t.Fatalf("Content-Length = %q, body is %d bytes", got, rec.Body.Len())
	}
	return rec.Body.String()
}

// coldScrape is what /metrics must answer: every block rendered afresh
// from snapshots, in the old order, sorted by the reference.
func coldScrape(s *Server) string {
	var old bytes.Buffer
	WriteMetrics(&old, s.reg.Statuses())
	e := expo.NewWriter(0)
	writeServerMetrics(e, s.jobs.Status(), s.reg.pool.status(), s.reg.ShardStatuses(), s.reg.Migrations())
	old.Write(e.Bytes())
	return sortFamiliesRef(old.String())
}

// TestScrapeMatchesColdRenderUnderMutations drives a seeded random
// sequence of the changes an instance's printed values go through, and
// scrapes between them: every body must equal a cold render of the
// pool. Some changes are written into the status directly, each ending
// with the status writers' generation bump — load and SLO moves as a
// stepped epoch publishes them, the error budget moving, health and
// restarts, done and running — and dropped events,
// which the hub counts without one. The rest run the status writers
// themselves on instances paced too slowly to step on their own: a
// controller action, a stepped slice, an armed driver panic, the crash
// and the restart it brings, quarantine, the stability window closing,
// best-effort tasks attached and detached, and a scenario installed
// and run to its end. Instances are deleted from and created into the
// middle of a block, some under the id just deleted.
func TestScrapeMatchesColdRenderUnderMutations(t *testing.T) {
	s := New(Config{Lab: testLab, Shards: 2, MaxInstances: 64, restartBackoff: time.Hour})
	defer s.Close()
	finishedPool(t, s, blockSize+3)
	for range 4 { // due once a simulated year has passed: only the test steps them
		if _, err := s.CreateInstance(InstanceSpec{Load: 0.4, Speed: 1e-8}); err != nil {
			t.Fatal(err)
		}
	}
	h := s.Handler()
	r := rand.New(rand.NewPCG(7, 39))
	create := func() {
		inst, err := s.CreateInstance(InstanceSpec{Load: 0.3, Speed: SpeedMax, MaxEpochs: 2})
		if err != nil {
			t.Fatal(err)
		}
		awaitInstance(t, inst, "instance done", func() bool { return inst.Status().State == StateDone })
	}
	check := func(step int) {
		t.Helper()
		// A new instance's last slice books its counters a moment after
		// it reports done: compare once the cold render holds still.
		for tries := 0; ; tries++ {
			before := coldScrape(s)
			body := scrapeBody(t, h)
			if after := coldScrape(s); before != after {
				if tries == 50 {
					t.Fatal("the pool's exposition keeps changing")
				}
				continue
			}
			if body != before {
				t.Fatalf("step %d: /metrics differs from a cold render\ngot:\n%s\nwant:\n%s", step, body, before)
			}
			return
		}
	}
	scenario, err := (&ScenarioSpec{Name: "short", DurationS: 3, Load: &ShapeSpec{Kind: "flat", Value: 0.5}}).Build()
	if err != nil {
		t.Fatal(err)
	}
	loops, actions := []string{"core", "top", "net"}, []string{"grow", "shrink", "disable"}
	var lastDeleted string
	for step := range 500 {
		insts := s.reg.List()
		var paced, finished []*Instance
		for _, i := range insts {
			if i.speed > 0 {
				paced = append(paced, i)
			} else {
				finished = append(finished, i)
			}
		}
		if op := r.IntN(17); op >= 10 {
			// The status writers, on an instance that steps only here.
			inst := paced[r.IntN(len(paced))]
			switch op {
			case 10, 11, 12: // a slice: epochs stepped, or the restart a crash scheduled
				inst.runSlice()
			case 13: // an armed driver panic, which the next slice books as a crash
				inst.InjectFault(FaultRequest{Kind: FaultDriverPanic})
			case 14: // quarantine, now and then; the stability window, which clears a crash
				if r.IntN(8) == 0 {
					inst.quarantine("test")
				} else {
					inst.stepMu.Lock()
					inst.epochsSinceRestart = inst.sup.stable
					inst.markStable()
					inst.stepMu.Unlock()
				}
			case 15: // a best-effort task attached or detached
				if r.IntN(2) == 0 {
					inst.AttachBE(BEAttachment{Workload: "brain"})
				} else {
					inst.DetachBE("brain")
				}
			case 16: // a scenario installed; slices run it to its end
				inst.InstallScenario(scenario, nil)
			}
		} else {
			inst := finished[r.IntN(len(finished))]
			st := &inst.status
			switch op {
			case 0, 1, 2, 4, 5, 6:
				inst.mu.Lock()
				switch op {
				case 0: // a stepped epoch moves the load and what follows it
					st.Last.Load = float64(r.IntN(8)) / 8
					st.Last.TailMs, st.Last.Slack = r.Float64()*20, r.Float64()-0.5
					st.Epoch++
				case 1: // the SLO target
					st.Last.SLOMs = float64(10 + r.IntN(3))
				case 2: // the error budget moving
					st.SLO.Violations++
					st.SLO.Burn[r.IntN(slo.NumWindows)] = r.Float64() * 20
					st.SLO.Page = r.IntN(2) == 0
				case 4: // health and restarts
					st.Health = []string{HealthHealthy, HealthDegraded, HealthQuarantined}[r.IntN(3)]
					st.Restarts += r.IntN(2)
				case 5: // done and running
					st.State = []string{StateRunning, StateDone}[r.IntN(2)]
				case 6:
					st.FaultsInjected++
				}
				inst.notifyLocked()
				inst.mu.Unlock()
			case 3: // a controller action appears or counts up
				inst.onControllerEvent(core.Event{Loop: loops[r.IntN(3)], Action: actions[r.IntN(3)]})
			case 7: // dropped events: the hub counts them outside i.mu
				inst.hub.dropped.Add(int64(1 + r.IntN(3)))
			case 8: // delete
				if len(finished) > 2 {
					if _, _, ok := s.reg.Remove(inst.ID()); ok {
						inst.Stop()
						lastDeleted = inst.ID()
					}
				}
			case 9: // create, half the time under the id last deleted
				if lastDeleted != "" && r.IntN(2) == 0 {
					n, _ := strconv.Atoi(strings.TrimPrefix(lastDeleted, "i"))
					s.reg.mu.Lock()
					seq := s.reg.seq
					s.reg.seq = n - 1
					s.reg.mu.Unlock()
					create()
					s.reg.mu.Lock()
					s.reg.seq = seq
					s.reg.mu.Unlock()
					lastDeleted = ""
				} else {
					create()
				}
			}
		}
		if r.IntN(2) == 0 {
			check(step)
		}
	}
	check(500)
}

// TestRerenderLeavesOldRowsIntact holds the copy-on-write rule: blocks
// a scrape took are never written again, however their members move, so
// a slow scraper still sending them sends what it took. A scrape builds
// again only the block whose member moved, and one that finds nothing
// moved sends the blocks it sent before.
func TestRerenderLeavesOldRowsIntact(t *testing.T) {
	s := New(Config{Lab: testLab})
	defer s.Close()
	finishedPool(t, s, blockSize+2)
	gather := func() []*expo.Rows {
		var fleet fleetStats
		return s.scrape.gather(s.reg.List(), &fleet)
	}
	first := gather()
	if len(first) != 2 {
		t.Fatalf("%d instances gathered into %d blocks, want 2", blockSize+2, len(first))
	}
	kept := [][]byte{bytes.Clone(first[0].Buf), bytes.Clone(first[1].Buf)}
	if again := gather(); !slices.Equal(again, first) {
		t.Fatal("a scrape of an unmoved pool built its blocks again")
	}
	inst := s.reg.List()[1]
	for _, move := range []func(){
		func() { inst.onControllerEvent(core.Event{Loop: "top", Action: "enable-be"}) },
		func() { inst.onControllerEvent(core.Event{Loop: "top", Action: "enable-be"}) },
		func() { inst.mu.Lock(); inst.status.Last.Load += 0.125; inst.notifyLocked(); inst.mu.Unlock() },
	} {
		prev := gather()
		move()
		next := gather()
		if next[0] == prev[0] || bytes.Equal(next[0].Buf, prev[0].Buf) {
			t.Fatal("the block of a moved instance was sent again")
		}
		if next[1] != prev[1] {
			t.Fatal("a block none of whose members moved was built again")
		}
		for b := range first {
			if !bytes.Equal(first[b].Buf, kept[b]) {
				t.Fatalf("building again wrote into block %d an earlier scrape took:\n%s", b, first[b].Buf)
			}
		}
	}
}

// TestWarmScrapeAllocationDoesNotGrowWithPool pins what a scrape of a
// pool that has not moved allocates: every instance's rows are reused,
// so what grows with the pool is the instance list and the list of its
// rows, 16 bytes an instance. The rest is the blocks' writer and the
// write stage, whatever the pool. The render this replaced allocated
// ~1.1x the body every scrape, ~1.9 KB an instance.
func TestWarmScrapeAllocationDoesNotGrowWithPool(t *testing.T) {
	const small, large = 300, 1000
	s := New(Config{Lab: testLab, Shards: 2, MaxInstances: large})
	defer s.Close()
	h := s.Handler()
	w := &discardResponse{header: http.Header{}}
	warm := func() (body, perScrape int) {
		for body, prev := scrapeBody(t, h), ""; body != prev; body, prev = scrapeBody(t, h), body {
		}
		req := httptest.NewRequest("GET", "/metrics", nil)
		const runs = 10
		w.n = 0
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range runs {
			h.ServeHTTP(w, req)
		}
		runtime.ReadMemStats(&after)
		return w.n / runs, int(after.TotalAlloc-before.TotalAlloc) / runs
	}
	finishedPool(t, s, small)
	body0, alloc0 := warm()
	finishedPool(t, s, large-small)
	body1, alloc1 := warm()
	if body1 < 1000*large {
		t.Fatalf("body is only %d bytes for %d instances", body1, large)
	}
	if grew := alloc1 - alloc0; grew > 20*(large-small) {
		t.Fatalf("a warm scrape allocates %d bytes at %d instances and %d at %d: %d bytes more for %d instances, want at most 20 each",
			alloc0, small, alloc1, large, grew, large-small)
	}
	t.Logf("warm scrape: %d instances %d-byte body, %d bytes allocated; %d instances %d-byte body, %d bytes allocated (%.2f%%)",
		small, body0, alloc0, large, body1, alloc1, 100*float64(alloc1)/float64(body1))
}

// TestConcurrentScrapesDuringChurn scrapes from several goroutines while
// others create, migrate and delete instances (run it under -race: make
// churn does). Every body must carry its length, keep the families in
// name order, and hold each instance's series only under an id that
// was live at some point: no torn rows, no lost family.
func TestConcurrentScrapesDuringChurn(t *testing.T) {
	target, most := int64(150), 400 // scrapes, all scrapers together; creates per churner
	if raceEnabled {
		target, most = 40, 150
	}
	s := New(Config{Lab: testLab, Shards: 3, MaxInstances: 1 << 20})
	defer s.Close()
	h := s.Handler()
	var (
		wg, churn sync.WaitGroup
		scrapes   atomic.Int64
		done      = make(chan struct{})
	)
	for range 3 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
				body := rec.Body.String()
				if got := rec.Header().Get("Content-Length"); got != strconv.Itoa(len(body)) {
					t.Errorf("Content-Length = %q, body is %d bytes", got, len(body))
					return
				}
				if body != sortFamiliesRef(body) {
					t.Error("families out of order in a scrape during churn")
					return
				}
				if err := checkInstanceLines(s, body); err != nil {
					t.Error(err)
					return
				}
				scrapes.Add(1)
			}
		}()
	}
	// Churn until the scrapers have seen enough of it, within a bound:
	// creates of finishing and of paced, moving instances, migrations,
	// and deletes of three in four.
	for w := range 3 {
		churn.Add(1)
		go func(w int) {
			defer churn.Done()
			for k := 0; k < most && scrapes.Load() < target && !t.Failed(); k++ {
				spec := InstanceSpec{Speed: SpeedMax, MaxEpochs: 2 + k%5}
				if k%2 == 1 {
					spec = InstanceSpec{Speed: 100, Load: 0.4}
				}
				inst, err := s.CreateInstance(spec)
				if err != nil {
					t.Errorf("create: %v", err)
					return
				}
				id := inst.ID()
				if k%3 == 0 {
					if res, err := s.MigrateToShard(id, (inst.Status().Shard+1)%3); err == nil {
						id = res.To
					}
				}
				if (w+k)%4 != 0 {
					if inst, _, ok := s.reg.Remove(id); ok {
						inst.Stop()
					}
				}
			}
		}(w)
	}
	churn.Wait()
	close(done)
	wg.Wait()
	t.Logf("%d scrapes over %d instances created", scrapes.Load(), s.reg.seq)
}

// checkInstanceLines parses a body's per-instance series: each must
// sit under its family and name an id the registry had minted by the
// end of the scrape.
func checkInstanceLines(s *Server, body string) error {
	s.reg.mu.Lock()
	minted := s.reg.seq
	s.reg.mu.Unlock()
	perInstance := map[string]bool{}
	for k := range instanceFamilies {
		perInstance[instanceFamilies[k].name] = true
	}
	family := ""
	for _, line := range strings.Split(strings.TrimSuffix(body, "\n"), "\n") {
		if name, ok := strings.CutPrefix(line, "# HELP "); ok {
			family, _, _ = strings.Cut(name, " ")
			continue
		}
		if strings.HasPrefix(line, "#") || !perInstance[family] {
			continue
		}
		id, ok := strings.CutPrefix(line, family+`{instance="i`)
		if !ok {
			return fmt.Errorf("series %q under family %s", line, family)
		}
		id, _, _ = strings.Cut(id, `"`)
		if n, err := strconv.Atoi(id); err != nil || n <= 0 || n > minted {
			return fmt.Errorf("series %q names instance i%s; the registry has minted i1..i%d", line, id, minted)
		}
	}
	return nil
}
