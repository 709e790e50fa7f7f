//go:build linux

package main

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
)

var testIDs = []string{"i1", "i2", "i3", "i4", "i5", "i6", "i7", "i8"}

// generators builds one generator of every kind from a seed.
func generators(seed uint64) map[string]func() op {
	return map[string]func() op{
		"apiMix":       apiMix(stream(seed, wlAPISteady, 2, phaseOp, 1), testIDs, 1, 2),
		"statusReads":  statusReads(stream(seed, wlFleetScrape, 0, phaseOp, 0), testIDs),
		"scrapes":      scrapes(stream(seed, wlFleetScrape, 0, phaseHeavy, 0)),
		"poolDraws":    poolDraws(stream(seed, wlStateMove, 3, phaseOp, 0), "migrate", 16),
		"colocateSets": colocateSets(stream(seed, wlBatchRepro, 1, phaseOp, 0), 3),
		"fleetRuns":    fleetRuns(stream(seed, wlBatchRepro, 0, phaseHeavy, 0), 5, 10),
	}
}

func take(next func() op, n int) []op {
	out := make([]op, n)
	for i := range out {
		out[i] = next()
	}
	return out
}

// -seed alone determines every op list, id draw and value.
func TestSameSeedSameOps(t *testing.T) {
	a, b, c := generators(42), generators(42), generators(43)
	for name := range a {
		la, lb, lc := take(a[name], 200), take(b[name], 200), take(c[name], 200)
		if !reflect.DeepEqual(la, lb) {
			t.Errorf("%s: two generators with one seed emitted different lists", name)
		}
		if reflect.DeepEqual(la, lc) {
			t.Errorf("%s: seeds 42 and 43 emitted the same list", name)
		}
	}
}

// Each connection owns the instances congruent to its index, and the
// mix has the documented shares.
func TestAPIMixShape(t *testing.T) {
	ops := take(apiMix(stream(7, wlAPISteady, 0, phaseOp, 1), testIDs, 1, 2), 20000)
	kinds := map[string]int{}
	for _, o := range ops {
		kinds[o.Kind]++
		if o.Inst%2 != 1 {
			t.Fatalf("worker 1 of 2 drew instance %d, which belongs to worker 0", o.Inst)
		}
		if !strings.Contains(o.Path, testIDs[o.Inst]) {
			t.Fatalf("op addresses %s but says instance %d", o.Path, o.Inst)
		}
		if o.Kind == "put-load" && (o.Value < 0.30 || o.Value > 0.61) {
			t.Fatalf("generated load %v outside 0.30-0.61", o.Value)
		}
	}
	for kind, share := range map[string]float64{"put-load": 0.5, "put-slo": 0.1, "get": 0.3, "get-slo": 0.1} {
		got := float64(kinds[kind]) / float64(len(ops))
		if got < share-0.02 || got > share+0.02 {
			t.Errorf("%s is %.3f of the mix, want %.2f", kind, got, share)
		}
	}
}

// Every round of batch-repro runs each best-effort workload the same
// number of times whatever the seed, so the round's latency mix — and
// its median — cannot depend on the seed.
func TestColocateSetsBalanced(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		counts := map[string]int{}
		for _, o := range take(colocateSets(stream(seed, wlBatchRepro, 0, phaseOp, 0), 4), 4*len(beWorkloads)) {
			counts[o.Argv[3]]++ // -lc websearch -be <name>
		}
		for _, be := range beWorkloads {
			if counts[be] != 4 {
				t.Fatalf("seed %d: %s ran %d times in a round of 4 sets, want 4 (%v)", seed, be, counts[be], counts)
			}
		}
	}
}

// The same fleet seeds recur in every round: the heavy op's stream does
// not depend on the round, so a repeated command can be compared with
// its first run.
func TestFleetSeedsRecur(t *testing.T) {
	a := take(fleetRuns(stream(9, wlBatchRepro, 0, phaseHeavy, 0), 5, 10), 10)
	if !reflect.DeepEqual(a[:5], a[5:]) {
		t.Error("the fleet op list does not repeat after its n entries")
	}
	if reflect.DeepEqual(a[0].Argv, a[1].Argv) {
		t.Error("consecutive fleet ops share a seed")
	}
}

// The program under test receives only generated inputs: what arrives
// at the server is exactly the generator's list, request for request.
func TestProgramReceivesOnlyGeneratedInputs(t *testing.T) {
	var mu sync.Mutex
	var got []string
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body) // a test server reading a test client's body
		mu.Lock()
		got = append(got, r.Method+" "+r.URL.Path+" "+string(body))
		mu.Unlock()
	}))
	defer srv.Close()

	const n = 300
	tgt := newTarget(srv.URL, 1)
	defer tgt.close()
	res := runPhase(context.Background(), phaseSpec{
		name: "op", workers: 1, count: n,
		next: func(w int) func() op { return apiMix(stream(5, wlAPISteady, 0, phaseOp, w), testIDs, w, 1) },
		do: func(w int, o op) error {
			_, err := tgt.expect(w, http.StatusOK, o.Method, o.Path, o.Body)
			return err
		},
	}, nil, 0)
	if res.failed != 0 || len(res.ms) != n {
		t.Fatalf("phase completed %d of %d ops, %d failed: %v", len(res.ms), n, res.failed, res.firstErr)
	}
	want := take(apiMix(stream(5, wlAPISteady, 0, phaseOp, 0), testIDs, 0, 1), n)
	if len(got) != n {
		t.Fatalf("server saw %d requests, want %d", len(got), n)
	}
	for i, o := range want {
		if w := o.Method + " " + o.Path + " " + o.Body; got[i] != w {
			t.Fatalf("request %d: server saw %q, generator emitted %q", i, got[i], w)
		}
	}
}
