package workload

import (
	"reflect"
	"slices"
	"testing"
	"time"
)

func TestLCSpecsComplete(t *testing.T) {
	specs := LCSpecs()
	if len(specs) != 3 {
		t.Fatalf("want 3 LC workloads, got %d", len(specs))
	}
	names := map[string]bool{}
	for _, s := range specs {
		names[s.Name] = true
		if s.SLOQuantile < 0.9 || s.SLOQuantile > 0.999 {
			t.Fatalf("%s: quantile %v", s.Name, s.SLOQuantile)
		}
		if s.SLOMultiplier <= 1 {
			t.Fatalf("%s: SLO multiplier %v", s.Name, s.SLOMultiplier)
		}
		if s.BaseService() <= 0 {
			t.Fatalf("%s: base service %v", s.Name, s.BaseService())
		}
		if s.AccessesPerReq <= 0 || len(s.CacheComponents) == 0 {
			t.Fatalf("%s: cache model missing", s.Name)
		}
		var frac float64
		for _, c := range s.CacheComponents {
			frac += c.AccessFrac
		}
		if frac < 0.99 || frac > 1.01 {
			t.Fatalf("%s: access fractions sum to %v", s.Name, frac)
		}
	}
	for _, want := range []string{"websearch", "ml_cluster", "memkeyval"} {
		if !names[want] {
			t.Fatalf("missing %s", want)
		}
	}
}

func TestLCQuantiles(t *testing.T) {
	// §3.1: websearch and memkeyval have 99%-ile SLOs, ml_cluster 95%-ile.
	if Websearch().SLOQuantile != 0.99 {
		t.Fatal("websearch quantile")
	}
	if MLCluster().SLOQuantile != 0.95 {
		t.Fatal("ml_cluster quantile")
	}
	if Memkeyval().SLOQuantile != 0.99 {
		t.Fatal("memkeyval quantile")
	}
}

func TestMemkeyvalIsFast(t *testing.T) {
	// §3.1: memkeyval processes requests orders of magnitude faster than
	// websearch and is network-intensive.
	mk, ws := Memkeyval(), Websearch()
	if mk.BaseService() > ws.BaseService()/50 {
		t.Fatalf("memkeyval service %v vs websearch %v", mk.BaseService(), ws.BaseService())
	}
	if mk.BytesPerReq <= 0 {
		t.Fatal("memkeyval must have network demand")
	}
}

func TestMLClusterHasLoadScalingFootprint(t *testing.T) {
	// §3.1: ml_cluster's per-request working set scales with outstanding
	// requests.
	found := false
	for _, c := range MLCluster().CacheComponents {
		if c.ScalesWithLoad {
			found = true
		}
	}
	if !found {
		t.Fatal("ml_cluster needs a ScalesWithLoad component")
	}
}

func TestLCByName(t *testing.T) {
	if _, ok := LCByName("websearch"); !ok {
		t.Fatal("websearch not found")
	}
	if _, ok := LCByName("nope"); ok {
		t.Fatal("phantom workload found")
	}
}

func TestBESpecsComplete(t *testing.T) {
	specs := BESpecs()
	if len(specs) != 6 {
		t.Fatalf("want 6 BE workloads, got %d", len(specs))
	}
	for _, s := range specs {
		if s.CPUFrac+s.MemFrac <= 0 {
			t.Fatalf("%s: empty work model", s.Name)
		}
		if s.Activity <= 0 {
			t.Fatalf("%s: activity %v", s.Name, s.Activity)
		}
	}
}

func TestAntagonistsMatchFigure1Rows(t *testing.T) {
	ants := Antagonists()
	wantNames := []string{"LLC (small)", "LLC (med)", "LLC (big)", "stream-DRAM", "spinloop", "cpu_pwr", "iperf"}
	if len(ants) != len(wantNames) {
		t.Fatalf("antagonist count %d", len(ants))
	}
	for i, want := range wantNames {
		if ants[i].Name != want {
			t.Fatalf("antagonist %d = %s, want %s", i, ants[i].Name, want)
		}
	}
}

func TestLLCAntagonistSizes(t *testing.T) {
	// §3.2: arrays sized to a quarter, half, and almost all of the 45 MB LLC.
	small := LLCSmall().CacheComponents[0].FootprintMB
	med := LLCMedium().CacheComponents[0].FootprintMB
	big := LLCBig().CacheComponents[0].FootprintMB
	if !(small < med && med < big) {
		t.Fatalf("sizes not ordered: %v %v %v", small, med, big)
	}
	if small > 45.0/3 || big < 45*0.8 {
		t.Fatalf("sizes off: small=%v big=%v", small, big)
	}
}

func TestPowerVirusProfile(t *testing.T) {
	// §3.2: the power virus stresses all core components — activity above
	// every other workload, pure compute.
	pv := CPUPower()
	if pv.Activity <= 1.2 {
		t.Fatalf("power virus activity %v", pv.Activity)
	}
	if pv.MemFrac != 0 {
		t.Fatal("power virus should be compute-only")
	}
}

func TestIperfProfile(t *testing.T) {
	// §3.2: many low-bandwidth mice flows saturating the link.
	ip := Iperf()
	if !ip.NetworkBound || ip.NetFlows < 50 || ip.NetDemandGBs < 1 {
		t.Fatalf("iperf profile: %+v", ip)
	}
}

func TestStreetviewIsDRAMBound(t *testing.T) {
	sv := Streetview()
	if sv.MemFrac < 0.5 {
		t.Fatalf("streetview MemFrac %v", sv.MemFrac)
	}
}

func TestBEByName(t *testing.T) {
	for _, name := range []string{"brain", "streetview", "LLC (big)", "spinloop"} {
		if _, ok := BEByName(name); !ok {
			t.Fatalf("%s not found", name)
		}
	}
	if _, ok := BEByName("nope"); ok {
		t.Fatal("phantom BE found")
	}
}

// TestFillerResolvesByNameOnly: the characterisation filler is one more
// name BEByName resolves, but not a production workload, so `-be all`
// (BESpecs) leaves it out.
func TestFillerResolvesByNameOnly(t *testing.T) {
	if got, ok := BEByName("filler"); !ok || !reflect.DeepEqual(got, Filler()) {
		t.Fatalf(`BEByName("filler") = %+v, %v; want Filler()`, got, ok)
	}
	for _, s := range BESpecs() {
		if s.Name == "filler" {
			t.Fatal("BESpecs lists the filler")
		}
	}
}

func TestPlacementString(t *testing.T) {
	if PlaceDedicated.String() != "dedicated" ||
		PlaceHTSibling.String() != "ht-sibling" ||
		PlaceOSShared.String() != "os-shared" {
		t.Fatal("placement names")
	}
	if PlacementKind(99).String() != "unknown" {
		t.Fatal("unknown placement name")
	}
}

func TestFillerIsNeutral(t *testing.T) {
	f := Filler()
	if f.AccessRatePerCore != 0 || f.NetDemandGBs != 0 || f.HTPenalty != 0 {
		t.Fatalf("filler must not interfere: %+v", f)
	}
}

func TestBaseService(t *testing.T) {
	s := LCSpec{CPUTime: 3 * time.Millisecond, MemTime: time.Millisecond}
	if s.BaseService() != 4*time.Millisecond {
		t.Fatalf("base service %v", s.BaseService())
	}
}

// TestNameChecksBuildNothing: the existence checks every restore runs
// allocate nothing, and a lookup builds only the spec it returns (brain
// and websearch each own one slice of cache components).
func TestNameChecksBuildNothing(t *testing.T) {
	for _, name := range []string{"brain", "filler", "LLC (big)", "websearch", "nope"} {
		if got := testing.AllocsPerRun(100, func() { HasBE(name) }); got != 0 {
			t.Errorf("HasBE(%q) allocates %v times, want 0", name, got)
		}
		if got := testing.AllocsPerRun(100, func() { HasLC(name) }); got != 0 {
			t.Errorf("HasLC(%q) allocates %v times, want 0", name, got)
		}
	}
	if got := testing.AllocsPerRun(100, func() { BEByName("brain") }); got > 1 {
		t.Errorf(`BEByName("brain") allocates %v times, want at most 1`, got)
	}
	if got := testing.AllocsPerRun(100, func() { LCByName("websearch") }); got > 1 {
		t.Errorf(`LCByName("websearch") allocates %v times, want at most 1`, got)
	}
}

// TestByNameReturnsIndependentCopies: every catalogue entry resolves by
// name to an equal spec, and editing a returned spec, its cache
// components included, changes no later lookup.
func TestByNameReturnsIndependentCopies(t *testing.T) {
	for _, want := range slices.Concat(BESpecs(), Antagonists(), []BESpec{Filler()}) {
		got, ok := BEByName(want.Name)
		if !ok || !HasBE(want.Name) || !reflect.DeepEqual(got, want) {
			t.Fatalf("BEByName(%q) = %+v, %v; want %+v", want.Name, got, ok, want)
		}
		got.Activity = -1
		for i := range got.CacheComponents {
			got.CacheComponents[i].FootprintMB = -1
		}
		if again, _ := BEByName(want.Name); !reflect.DeepEqual(again, want) {
			t.Fatalf("BEByName(%q) changed after an edit of an earlier result", want.Name)
		}
	}
	for _, want := range LCSpecs() {
		got, ok := LCByName(want.Name)
		if !ok || !HasLC(want.Name) || !reflect.DeepEqual(got, want) {
			t.Fatalf("LCByName(%q) = %+v, %v; want %+v", want.Name, got, ok, want)
		}
		for i := range got.CacheComponents {
			got.CacheComponents[i].FootprintMB = -1
		}
		if again, _ := LCByName(want.Name); !reflect.DeepEqual(again, want) {
			t.Fatalf("LCByName(%q) changed after an edit of an earlier result", want.Name)
		}
	}
	if HasBE("websearch") || HasLC("brain") {
		t.Fatal("a name resolved in the other catalogue")
	}
}
