package experiment

import (
	"math"
	"reflect"
	"testing"
	"time"

	"heracles/internal/machine"
	"heracles/internal/workload"
)

// TestDRAMProfileIsFeedForward is why profileDRAM takes one Step per
// cell: for every LC workload and every cell of its table, each of the
// first five epochs of a fresh machine set up for that cell reports the
// table's value exactly — LC DRAM demand does not depend on anything an
// earlier epoch leaves behind. The table itself is the same for any
// worker count.
func TestDRAMProfileIsFeedForward(t *testing.T) {
	lab := sharedLab(t)
	for _, spec := range workload.LCSpecs() {
		wl := lab.LC(spec.Name)
		table := lab.DRAMModel(spec.Name)
		if n := len(table.Loads) * len(table.Cores) * len(table.Ways); n != 180 {
			t.Fatalf("%s: table has %d cells, want 180", spec.Name, n)
		}
		seq := &Lab{Cfg: lab.Cfg, Workers: 1}
		if !reflect.DeepEqual(seq.DRAMModel(spec.Name), table) {
			t.Fatalf("%s: one-worker DRAM table differs from the default-worker one", spec.Name)
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
// a fresh lab (so calibration and the DRAM profile are paid), the
// baseline sweep and one colocated sweep, six loads of four minutes, one
// worker. Building a machine per calibration probe and per DRAM cell took
// 11.1k; sharing them takes 3.5k.
func TestColocateCommandAllocationBudget(t *testing.T) {
	loads := make([]float64, 6)
	for i := range loads {
		loads[i] = 0.05 + 0.90*float64(i)/5
	}
	opts := RunOpts{Duration: 4 * time.Minute, UseDRAMModel: true, Workers: 1}
	allocs := testing.AllocsPerRun(5, func() {
		lab := DefaultLab()
		lab.Workers = 1
		lab.Baseline("websearch", loads, opts)
		lab.Colocate("websearch", "brain", loads, opts)
	})
	t.Logf("one colocate command allocates %.0f objects", allocs)
	if allocs > 4000 {
		t.Fatalf("one colocate command allocates %.0f objects, budget 4000", allocs)
	}
}
