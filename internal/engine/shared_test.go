package engine_test

import (
	"bytes"
	"testing"
	"time"

	"heracles/internal/engine"
)

// TestSharedStagesMatchPrivate is the differential pin for the stage memo
// an engine's machines share: one engine whose machines share their stage
// records and one whose machines keep them private run the same epochs,
// and after every epoch their checkpoints must be the same bytes. The run
// moves every input by which leaves differ — BE arrive and depart events,
// scheduler jobs, a leaf crash, a slowdown, an SLO-scale event, dynamic
// leaf targets — and midway both engines go through Snapshot and Restore,
// which forms the memo again, cold.
func TestSharedStagesMatchPrivate(t *testing.T) {
	const epochs, cut = 480, 200
	sc := testScenario(epochs * time.Second)
	config := func(private bool) engine.Config {
		cfg := clusterConfig(testJobs(8))
		cfg.Faults = faultSchedule()
		if private {
			cfg = engine.PrivateStages(cfg)
		}
		return cfg
	}
	var engs [2]*engine.Engine // shared, private
	for i := range engs {
		engs[i] = engine.New(config(i == 1))
		engs[i].InstallScenario(sc)
	}
	down := 0
	for epoch := 0; epoch < epochs; epoch++ {
		if epoch == cut {
			for i, e := range engs {
				r, err := engine.Restore(config(i == 1), e.Snapshot(), &sc)
				if err != nil {
					t.Fatalf("restore: %v", err)
				}
				engs[i] = r
			}
		}
		shared, private := engs[0].Step().Stat, engs[1].Step().Stat
		if shared != private {
			t.Fatalf("epoch %d: shared stage records gave\n%+v\nprivate ones\n%+v", epoch, shared, private)
		}
		down += shared.Down
		if a, b := engs[0].Snapshot().EncodeBinary(), engs[1].Snapshot().EncodeBinary(); !bytes.Equal(a, b) {
			t.Fatalf("epoch %d: engine state differs between shared and private stage records", epoch)
		}
	}
	if down == 0 {
		t.Fatal("no down epochs: the crash fault did not land")
	}
	if _, acct := engs[0].SchedAccounting(); acct == nil || acct.Completed == 0 {
		t.Fatalf("the scheduler completed no jobs; the comparison exercised none: %+v", acct)
	}
}
