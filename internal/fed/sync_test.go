package fed

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"sort"
	"strings"
	"testing"
	"time"

	"heracles/internal/chash"
	"heracles/internal/serve"
)

// TestRouterKeepsFederatedNames: a member holds each instance under its
// federated id, so nothing the router passes through names a member-local
// one — not the status's last epoch, not a proxied stream's epoch event,
// and not a migration's result.
func TestRouterKeepsFederatedNames(t *testing.T) {
	_, rt, fts := newFleet(t, 2, 8)
	var info InstanceInfo
	if err := json.Unmarshal(doReq(t, "POST", fts.URL+"/api/v1/instances", serve.InstanceSpec{Speed: 20, Load: 0.3}, 201), &info); err != nil {
		t.Fatal(err)
	}
	fid := info.ID
	if info.MemberID != fid || info.Member != rt.table.Place(fid) {
		t.Fatalf("create answered id %s, member %s, member_id %s: want the member to hold the federated id", fid, info.Member, info.MemberID)
	}

	// A proxied stream's epoch events name the instance as the client does.
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, "GET", fts.URL+"/api/v1/instances/"+fid+"/stream", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(resp.Body)
	for epoch := false; ; {
		if !sc.Scan() {
			t.Fatalf("stream ended before an epoch event: %v", sc.Err())
		}
		line := sc.Text()
		if line == "event: epoch" {
			epoch = true
		}
		if data, ok := strings.CutPrefix(line, "data: "); ok && epoch {
			var ev serve.EpochUpdate
			if err := json.Unmarshal([]byte(data), &ev); err != nil {
				t.Fatal(err)
			}
			if ev.Instance != fid {
				t.Fatalf("proxied epoch event names %q, want %q", ev.Instance, fid)
			}
			break
		}
	}
	cancel()
	resp.Body.Close()

	// The status read through the router names it too, down to the last
	// epoch's summary.
	var got InstanceInfo
	if err := json.Unmarshal(doReq(t, "GET", fts.URL+"/api/v1/instances/"+fid, nil, 200), &got); err != nil {
		t.Fatal(err)
	}
	if got.ID != fid || got.MemberID != fid || got.Last.Instance != fid || got.Member != info.Member {
		t.Fatalf("GET %s = id %s, member %s, member_id %s, last.instance %s", fid, got.ID, got.Member, got.MemberID, got.Last.Instance)
	}

	// A migration lands the instance under the same id on the target.
	target := rt.Members()[0]
	if target == info.Member {
		target = rt.Members()[1]
	}
	var res serve.MigrateResult
	if err := json.Unmarshal(doReq(t, "POST", fts.URL+"/api/v1/instances/"+fid+"/migrate", FedMigrateRequest{Member: target}, 200), &res); err != nil {
		t.Fatal(err)
	}
	if res.From != fid || res.To != fid || res.Peer != target {
		t.Fatalf("migrate %s = %+v, want from and to %s, peer %s", fid, res, fid, target)
	}
	if err := json.Unmarshal(doReq(t, "GET", fts.URL+"/api/v1/instances/"+fid, nil, 200), &got); err != nil {
		t.Fatal(err)
	}
	if got.Member != target || got.MemberID != fid {
		t.Fatalf("after migration: member %s, member_id %s; want %s, %s", got.Member, got.MemberID, target, fid)
	}
}

// TestRouterRestartKeepsNamespace restarts the router mid-run over the
// same members and seed. The new router, synced, answers every id as the
// old one did and mints past them; a member that joins later is synced
// too, its federated instances adopted, and the join moves exactly the
// instances whose hash home moved.
func TestRouterRestartKeepsNamespace(t *testing.T) {
	a, b, c := startMember(t, 64), startMember(t, 64), startMember(t, 64)
	nameMembers(t, map[string]member{"member-a": a, "member-b": b, "member-c": c})
	ab := []string{"http://member-a", "http://member-b"}
	_, fts := startRouter(t, ab...)

	const n = 24
	before := make(map[string]InstanceInfo, n)
	for range n {
		var info InstanceInfo
		if err := json.Unmarshal(doReq(t, "POST", fts.URL+"/api/v1/instances", serve.InstanceSpec{Speed: 1e-6}, 201), &info); err != nil {
			t.Fatal(err)
		}
		before[info.ID] = info
	}
	// An instance the joiner hosts from an earlier federation, and one
	// made out-of-band under a name that is not a federated id.
	doReq(t, "POST", c.ts.URL+"/api/v1/instances?id=f40", serve.InstanceSpec{Speed: 1e-6}, 201)
	doReq(t, "POST", a.ts.URL+"/api/v1/instances?id=local-1", serve.InstanceSpec{Speed: 1e-6}, 201)
	fts.Close()

	rt, fts := startRouter(t, ab...)
	if err := rt.Sync(rt.Members()...); err != nil {
		t.Fatalf("sync: %v", err)
	}
	get := func(fid string) InstanceInfo {
		var info InstanceInfo
		if err := json.Unmarshal(doReq(t, "GET", fts.URL+"/api/v1/instances/"+fid, nil, 200), &info); err != nil {
			t.Fatal(err)
		}
		return info
	}
	for fid, want := range before {
		if got := get(fid); got.ID != fid || got.Member != want.Member || got.MemberID != fid || got.Epoch != want.Epoch || got.State != want.State {
			t.Fatalf("after the restart %s = %+v, before %+v", fid, got, want)
		}
	}
	doReq(t, "GET", fts.URL+"/api/v1/instances/local-1", nil, 404)
	var next InstanceInfo
	if err := json.Unmarshal(doReq(t, "POST", fts.URL+"/api/v1/instances", serve.InstanceSpec{Speed: 1e-6}, 201), &next); err != nil {
		t.Fatal(err)
	}
	if _, taken := before[next.ID]; taken || next.ID != "f25" {
		t.Fatalf("first create after the restart got %s, want f25", next.ID)
	}
	before[next.ID] = next

	// The join adopts f40 and moves exactly what the grown table
	// displaces, f40 included if its home is not the joiner.
	grown := chash.New(DefaultSeed, append(ab, "http://member-c")...)
	before["f40"] = InstanceInfo{Member: "http://member-c"}
	var displaced []string
	for fid, info := range before {
		if grown.Place(fid) != info.Member {
			displaced = append(displaced, fid)
		}
	}
	var join struct {
		Moved int    `json:"moved"`
		Error string `json:"error"`
	}
	if err := json.Unmarshal(doReq(t, "POST", fts.URL+"/api/v1/members", map[string]string{"url": "http://member-c"}, 200), &join); err != nil {
		t.Fatal(err)
	}
	sort.Strings(displaced)
	if join.Error != "" || join.Moved != len(displaced) {
		t.Fatalf("join moved %d (error %q), want the %d displaced: %v", join.Moved, join.Error, len(displaced), displaced)
	}
	for fid := range before {
		if got := get(fid); got.Member != grown.Place(fid) || got.MemberID != fid {
			t.Fatalf("after the join %s is on %s as %s, its home is %s", fid, got.Member, got.MemberID, grown.Place(fid))
		}
	}
	if err := json.Unmarshal(doReq(t, "POST", fts.URL+"/api/v1/instances", serve.InstanceSpec{Speed: 1e-6}, 201), &next); err != nil {
		t.Fatal(err)
	}
	if next.ID != "f41" {
		t.Fatalf("first create after adopting f40 got %s, want f41", next.ID)
	}
}
