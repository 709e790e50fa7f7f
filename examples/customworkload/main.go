// Customworkload: define your own latency-critical service and best-effort
// job, calibrate them, and run them under Heracles — the path a downstream
// user takes to model their own fleet.
//
// The LC service modelled here is an RPC-based ad-ranking tier: ~4 ms of
// compute per request, a 6 MB hot working set over a 128 MB model, a p99
// SLO, and moderate egress. The BE job is a log-compaction task that
// streams heavily through DRAM.
package main

import (
	"fmt"
	"time"

	"heracles"
	"heracles/internal/cache"
)

func main() {
	hwCfg := heracles.DefaultHardware()

	adrank := heracles.LCSpec{
		Name:           "adrank",
		SLOQuantile:    0.99,
		SLOMultiplier:  3.0,
		CPUTime:        4 * time.Millisecond,
		MemTime:        1 * time.Millisecond,
		Sigma:          0.5,
		AccessesPerReq: 300e3,
		CacheComponents: []cache.Component{
			{Name: "hot", AccessFrac: 0.6, FootprintMB: 6, HitMax: 0.99, Theta: 0.6},
			{Name: "model", AccessFrac: 0.4, FootprintMB: 128, HitMax: 0.4, Theta: 1.0},
		},
		RefOutstanding:  24,
		BytesPerReq:     4 * 1024,
		Flows:           32,
		Activity:        0.95,
		RampPenalty:     10 * time.Millisecond,
		OSSharedPenalty: 40 * time.Millisecond,
	}

	compact := heracles.BESpec{
		Name:              "log-compaction",
		CPUFrac:           0.3,
		MemFrac:           0.7,
		AccessRatePerCore: 90e6,
		CacheComponents: []cache.Component{
			{Name: "segments", AccessFrac: 1, FootprintMB: 1024, HitMax: 0.1, Theta: 1},
		},
		Activity: 0.8,
	}

	lc := heracles.CalibrateLC(hwCfg, adrank)
	be := heracles.CalibrateBE(hwCfg, compact)
	fmt.Printf("calibrated %s: SLO=%v peak=%.0f QPS guaranteed=%.2f GHz\n",
		adrank.Name, lc.SLO, lc.PeakQPS, lc.GuaranteedGHz)

	m := heracles.NewMachine(hwCfg)
	m.SetLC(lc)
	m.AddBE(be, heracles.PlaceDedicated)
	m.SetLoad(0.35)

	ctl := heracles.NewController(m, nil, heracles.DefaultControllerConfig())
	ctl.OnEvent(func(e heracles.ControllerEvent) {
		if e.Action == "grow-cores" || e.Action == "dram-saturation" {
			fmt.Printf("  [%7v] %s: %s\n", e.At, e.Action, e.Detail)
		}
	})

	for i := 0; i < 600; i++ { // ten simulated minutes
		t := m.Step()
		ctl.Step(m.Clock().Now())
		if i%120 == 119 {
			fmt.Printf("t=%-5v tail=%5.1f%% of SLO, EMU=%5.1f%%, compaction rate=%.2f of alone\n",
				m.Clock().Now(), 100*t.TailLatency.Seconds()/lc.SLO.Seconds(),
				100*t.EMU, t.BERateNorm)
		}
	}
}
