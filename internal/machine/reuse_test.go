package machine

import (
	"bytes"
	"encoding/json"
	"testing"
	"unsafe"

	"heracles/internal/cache"
	"heracles/internal/core"
	"heracles/internal/hw"
	"heracles/internal/sim"
	"heracles/internal/workload"
)

// privateWorkloads returns copies of the calibrated catalogue whose cache
// components the caller may edit in place without disturbing other tests.
func privateWorkloads(t *testing.T) (map[string]*workload.LC, map[string]*workload.BE) {
	t.Helper()
	lcs, bes := calibrated(t)
	plc := map[string]*workload.LC{}
	for name, wl := range lcs {
		c := *wl
		c.Spec.CacheComponents = append([]cache.Component(nil), wl.Spec.CacheComponents...)
		plc[name] = &c
	}
	pbe := map[string]*workload.BE{}
	for name, wl := range bes {
		c := *wl
		c.Spec.CacheComponents = append([]cache.Component(nil), wl.Spec.CacheComponents...)
		pbe[name] = &c
	}
	return plc, pbe
}

// stateJSON is everything a step leaves behind, poll ring aside: the
// epoch's telemetry, the service-time feedback and the per-task rates.
// JSON keeps floats exact (shortest round-trip form, -0 distinct) and
// refuses NaN, which no telemetry field may hold.
func stateJSON(t *testing.T, m *Machine) []byte {
	t.Helper()
	s := m.Snapshot()
	s.Window = nil
	b, err := json.Marshal(s)
	if err != nil {
		t.Fatalf("marshal machine state: %v", err)
	}
	return b
}

// TestStepReuseMatchesColdSolve is the differential pin for stage reuse:
// one long-lived machine is driven through a seeded random sequence of
// every actuator and of direct in-place edits of the exported task and
// workload fields, with idle stretches in which stored solutions answer; before
// every epoch its state is snapshotted and restored into a fresh machine,
// which remembers nothing, and both step. The two must leave bit-identical
// state. A key comparison that drops a field (or compares components by
// slice pointer) makes the long-lived machine return a stale solution and
// fails here; that covers the epoch record's key as well as the stages'.
func TestStepReuseMatchesColdSolve(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  hw.Config
	}{{"dual-socket", hw.DefaultConfig()}, {"single-socket", hw.CompactConfig()}} {
		t.Run(tc.name, func(t *testing.T) {
			lcs, bes := privateWorkloads(t)
			beNames := []string{"brain", "streetview", "stream-LLC", "stream-DRAM", "cpu_pwr", "iperf"}
			lcByName := func(name string) *workload.LC { return lcs[name] }
			beByName := func(name string) *workload.BE { return bes[name] }
			cores := tc.cfg.TotalCores()

			m := New(tc.cfg)
			lc := m.SetLC(lcs["websearch"])
			m.AddBE(bes["brain"], workload.PlaceDedicated)
			m.SetLoad(0.5)
			m.Partition(cores / 3)
			rng := sim.NewRNG(15)

			// editComponent changes one field of one cache component of an
			// installed workload where it lies, behind the machine's back.
			editComponent := func() {
				comps := &lc.WL.Spec.CacheComponents
				if n := len(m.BEs()); n > 0 && rng.Intn(2) == 0 {
					comps = &m.BEs()[rng.Intn(n)].WL.Spec.CacheComponents
				}
				if len(*comps) == 0 {
					return // cpu_pwr and iperf have no cache working set
				}
				c := &(*comps)[rng.Intn(len(*comps))]
				switch rng.Intn(9) {
				case 0, 1:
					c.FootprintMB *= 0.8 + 0.4*rng.Float64()
				case 2:
					c.AccessFrac *= 0.9 + 0.2*rng.Float64()
				case 3:
					c.HitMax = 0.5 + 0.49*rng.Float64()
				case 4:
					c.Theta = 0.3 + 0.7*rng.Float64()
				case 5:
					c.ScalesWithLoad = !c.ScalesWithLoad
				case 6:
					c.Scan = !c.Scan
				case 7:
					if n := len(*comps); n > 1 {
						*comps = (*comps)[:n-1]
					}
				case 8:
					lc.WL.Spec.RefOutstanding = 1 + 20*rng.Float64()
				}
			}
			act := func() {
				switch rng.Intn(16) {
				case 0:
					m.SetLoad(0.05 + 1.2*rng.Float64()) // up into overload
				case 1:
					m.SetLoad(lc.Load + 0.01) // a nudge, as a diurnal trace makes
				case 2:
					m.Partition(rng.Intn(cores))
				case 3:
					m.PartitionWays(rng.Intn(tc.cfg.LLCWays))
				case 4:
					m.SetBEFreqCap(float64(rng.Intn(3)) * (tc.cfg.MinGHz + rng.Float64()))
				case 5:
					m.DisableBE()
				case 6:
					m.EnableBE()
				case 7:
					m.SetDegrade(0.8 + rng.Float64())
				case 8:
					m.SetBENetCeil(float64(rng.Intn(2)) * rng.Float64())
				case 9:
					if len(m.BEs()) < 3 {
						m.AddBE(bes[beNames[rng.Intn(len(beNames))]], workload.PlacementKind(rng.Intn(3)))
						m.Partition(m.BECoreCount() + 2)
					}
				case 10:
					if n := len(m.BEs()); n > 0 {
						m.RemoveBE(m.BEs()[rng.Intn(n)])
					}
				case 11:
					if n := len(lc.Cores); n > 0 {
						lc.Cores[rng.Intn(n)] = rng.Intn(cores)
					}
				case 12:
					if n := len(lc.Cores); n > 2 {
						lc.Cores = lc.Cores[:n-1]
					}
				case 13:
					if n := len(m.BEs()); n > 0 {
						if be := m.BEs()[rng.Intn(n)]; len(be.Cores) > 0 {
							be.Cores[rng.Intn(len(be.Cores))] = rng.Intn(cores)
						}
					}
				case 14:
					editComponent()
				case 15:
					m.ResetStats()
				}
			}

			for epoch, idle := 0, 0; epoch < 6000; epoch++ {
				if idle > 0 {
					idle--
				} else {
					act()
					if rng.Intn(3) > 0 {
						idle = rng.Intn(12)
					}
				}
				cold, err := RestoreMachine(m.Snapshot(), lcByName, beByName)
				if err != nil {
					t.Fatalf("epoch %d: restore: %v", epoch, err)
				}
				m.Step()
				cold.Step()
				if warm, ref := stateJSON(t, m), stateJSON(t, cold); !bytes.Equal(warm, ref) {
					t.Fatalf("epoch %d: state after a step with remembered solutions differs from a cold solve\nwarm: %s\ncold: %s", epoch, warm, ref)
				}
			}

			// The comparison means something only if stored solutions answered.
			freq, llc, latency := m.ReuseCounts()
			for stage, c := range map[string]StageCalls{"frequency": freq, "cache": llc, "latency": latency} {
				if c.ReusedShare() < 0.3 || c.Solved < 500 {
					t.Errorf("%s stage: %d solved, %d reused; the sequence must exercise both", stage, c.Solved, c.Reused)
				}
			}
			// And only if the epoch record answered some epochs whole.
			if h := m.EpochHits(); h < 1000 {
				t.Errorf("the epoch record answered %d of 6000 epochs; the idle stretches must exercise it", h)
			}
			t.Logf("epoch record answered %d of 6000 epochs", m.EpochHits())
		})
	}
}

// TestColocateSweepReuseShare pins the property the speed-up rests on:
// over a colocation sweep (cmd/colocate's six-point grid, four minutes a
// point, websearch with brain under the Heracles controller) most epochs
// repeat the one before, and the epoch record answers them whole; of the
// rest, most hand the frequency and cache stages arguments they have just
// solved. An epoch the record answers counts as a reuse of each stage. A
// change that leaks a per-epoch-varying value into the epoch key or a
// stage's arguments drops a share and fails here instead of silently
// losing the gain. The LC-alone arm is the same grid without the BE task.
func TestColocateSweepReuseShare(t *testing.T) {
	lcs, bes := calibrated(t)
	var freq, llc, latency StageCalls
	add := func(a *StageCalls, b StageCalls, hits uint64) { a.Solved += b.Solved; a.Reused += b.Reused + hits }
	var hits [2]uint64 // epochs the epoch record answered: colocated, LC alone
	for i := 0; i < 6; i++ {
		for arm := range hits {
			m := New(hw.DefaultConfig())
			m.SetLC(lcs["websearch"])
			if arm == 0 {
				m.AddBE(bes["brain"], workload.PlaceDedicated)
			}
			m.SetLoad(0.05 + 0.90*float64(i)/5)
			ctl := core.New(m, nil, core.DefaultConfig())
			for e := 0; e < 240; e++ {
				m.Step()
				ctl.Step(m.Clock().Now())
			}
			hits[arm] += m.EpochHits()
			if arm > 0 {
				continue
			}
			f, c, l := m.ReuseCounts()
			add(&freq, f, m.EpochHits())
			add(&llc, c, m.EpochHits())
			add(&latency, l, m.EpochHits())
		}
	}
	t.Logf("epochs answered whole: %d/1440 colocated, %d/1440 LC alone", hits[0], hits[1])
	if hits[0] < 1200 || hits[1] < 1400 {
		t.Errorf("epoch record answered %d/1440 colocated and %d/1440 LC-alone epochs, want >= 1200 and >= 1400", hits[0], hits[1])
	}
	t.Logf("reused share: frequency %.1f%%, cache %.1f%%, latency %.1f%%",
		100*freq.ReusedShare(), 100*llc.ReusedShare(), 100*latency.ReusedShare())
	if freq.ReusedShare() < 0.85 || llc.ReusedShare() < 0.85 {
		t.Fatalf("reused share fell below 85%%: frequency %+v, cache %+v", freq, llc)
	}
}

// TestReuseRecordsStaySmall bounds the heap stage reuse adds to every
// live machine: on the reference server with one BE task, with every
// record filled (an uneven core split makes the sockets differ), the
// records, their buffers and the machine's own memo stay under 1.5 KB.
func TestReuseRecordsStaySmall(t *testing.T) {
	lcs, bes := calibrated(t)
	m := New(hw.DefaultConfig())
	m.SetLC(lcs["websearch"])
	m.AddBE(bes["brain"], workload.PlaceDedicated)
	m.SetLoad(0.5)
	for i := 0; i < 40; i++ {
		m.Partition(7 + i%2*4)
		m.Step()
	}
	r := &m.reuse
	n := uintptr(cap(r.sockets)) * unsafe.Sizeof(socketReuse{})
	for _, e := range r.sockets {
		n += uintptr(cap(e.kinds))*unsafe.Sizeof(hw.CoreLoad{}) + uintptr(cap(e.kind))*2 +
			uintptr(cap(e.demands))*unsafe.Sizeof(cache.Demand{}) +
			uintptr(cap(e.comps))*unsafe.Sizeof(cache.Component{}) +
			uintptr(cap(e.shares))*unsafe.Sizeof(cache.Share{})
	}
	records := n
	memo := r.memo
	n += unsafe.Sizeof(*memo) + uintptr(cap(memo.freq)+cap(memo.cache)+cap(memo.ref)+cap(memo.lat))*unsafe.Sizeof(memo.lat[0])
	if n > 1536 {
		t.Fatalf("reuse records and memo hold %d bytes of heap, want at most 1536", n)
	}
	t.Logf("reuse records hold %d bytes of heap, the memo %d", records, n-records)
}

// TestEpochRecordStaysSmall bounds the heap the epoch record adds to a
// machine that steps, on the reference server: websearch with one BE
// task. The record holds no telemetry, and core ids are two bytes each.
func TestEpochRecordStaysSmall(t *testing.T) {
	lcs, bes := calibrated(t)
	m := New(hw.DefaultConfig())
	m.SetLC(lcs["websearch"])
	m.AddBE(bes["brain"], workload.PlaceDedicated)
	m.SetLoad(0.5)
	m.Partition(12)
	m.Step()
	r := m.rec
	n := unsafe.Sizeof(*r) + uintptr(cap(r.bes))*unsafe.Sizeof(beRecord{}) +
		uintptr(cap(r.cores))*2 + uintptr(cap(r.comps))*unsafe.Sizeof(cache.Component{})
	if n > 1024 {
		t.Fatalf("the epoch record holds %d bytes of heap, want at most 1024", n)
	}
	t.Logf("the epoch record holds %d bytes of heap", n)
}
