package experiment

import (
	"math"
	"reflect"
	"testing"
	"time"

	"heracles/internal/hw"
	"heracles/internal/machine"
	"heracles/internal/workload"
)

// TestDRAMProfileIsFeedForward is why profileDRAM takes one Step per
// cell: for every LC workload and every cell of its live profile, each of
// the first five epochs of a fresh machine set up for that cell reports
// the profile's value exactly — LC DRAM demand does not depend on
// anything an earlier epoch leaves behind. The live profile itself is the
// same for any worker count.
func TestDRAMProfileIsFeedForward(t *testing.T) {
	lab := sharedLab(t)
	for _, spec := range workload.LCSpecs() {
		wl := lab.LC(spec.Name)
		table := (&Lab{Cfg: lab.Cfg}).profileDRAM(wl)
		if n := len(table.Loads) * len(table.Cores) * len(table.Ways); n != 180 {
			t.Fatalf("%s: table has %d cells, want 180", spec.Name, n)
		}
		seq := &Lab{Cfg: lab.Cfg, Workers: 1}
		if !reflect.DeepEqual(seq.profileDRAM(wl), table) {
			t.Fatalf("%s: one-worker DRAM profile differs from the default-worker one", spec.Name)
		}
		for i, load := range table.Loads {
			for j, cores := range table.Cores {
				for k, ways := range table.Ways {
					m := machine.New(lab.Cfg)
					m.SetLC(wl)
					m.PinLC(cores)
					if ways < lab.Cfg.LLCWays {
						m.LC().Ways = ways
					}
					m.SetLoad(load)
					want := table.GBs[i][j][k]
					for e := 0; e < 5; e++ {
						if got := m.Step().LCDRAMGBs; math.Float64bits(got) != math.Float64bits(want) {
							t.Fatalf("%s load %v, %d cores, %d ways: epoch %d reports %v GB/s, table holds %v",
								spec.Name, load, cores, ways, e, got, want)
						}
					}
				}
			}
		}
	}
}

// TestColocateCommandAllocationBudget bounds the heap objects one
// cmd/colocate invocation of the benchmark's shape allocates in process:
// a fresh lab, the baseline sweep and one colocated sweep, six loads of
// four minutes, one worker. On the reference hardware the offline table
// answers calibration and the DRAM model (1 216 objects). On hardware
// the table does not hold (here a 25 Gb/s NIC) both run live (3 973).
func TestColocateCommandAllocationBudget(t *testing.T) {
	loads := make([]float64, 6)
	for i := range loads {
		loads[i] = 0.05 + 0.90*float64(i)/5
	}
	opts := RunOpts{Duration: 4 * time.Minute, UseDRAMModel: true, Workers: 1}
	live := hw.DefaultConfig()
	live.LinkGbps = 25
	for _, tc := range []struct {
		name   string
		cfg    hw.Config
		budget float64
	}{
		{"offline", hw.DefaultConfig(), 1500},
		{"live", live, 4000},
	} {
		t.Run(tc.name, func(t *testing.T) {
			allocs := testing.AllocsPerRun(5, func() {
				lab := NewLab(tc.cfg)
				lab.Workers = 1
				lab.Baseline("websearch", loads, opts)
				lab.Colocate("websearch", "brain", loads, opts)
			})
			t.Logf("one colocate command allocates %.0f objects", allocs)
			if allocs > tc.budget {
				t.Fatalf("one colocate command allocates %.0f objects, budget %.0f", allocs, tc.budget)
			}
		})
	}
}
