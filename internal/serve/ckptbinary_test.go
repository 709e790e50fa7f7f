package serve

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"testing"

	"heracles/internal/engine"
	"heracles/internal/experiment"
	"heracles/internal/machine"
)

// fullCkpt builds a checkpoint with every optional section populated —
// a real engine snapshot (telemetry, poll window, controller, scenario
// cursor),
// a scenario spec — so the binary envelope tests cover the whole payload
// surface, not just the scalar header. The migration spec's flash crowd
// and BE arrive/depart events give the state some texture.
func fullCkpt(t *testing.T) *InstanceCheckpoint {
	t.Helper()
	srv := New(Config{Lab: experiment.DefaultLab()})
	defer srv.Close()
	inst, err := srv.CreateInstance(migrationSpec(SpeedMax))
	if err != nil {
		t.Fatal(err)
	}
	awaitInstance(t, inst, "run complete", func() bool {
		return inst.Status().State == StateDone
	})
	cp, err := inst.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	return cp
}

// pacedCkpt checkpoints the migration run mid-flight and paced, so the
// checkpoint carries a tick schedule beside the engine state.
func pacedCkpt(t *testing.T) *InstanceCheckpoint {
	t.Helper()
	srv := testServer(t)
	inst, err := srv.CreateInstance(migrationSpec(migrationPace))
	if err != nil {
		t.Fatal(err)
	}
	awaitInstance(t, inst, "mid-run epoch reached", func() bool { return inst.Status().Epoch >= 30 })
	cp, err := inst.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if cp.NextDueUnixNano <= 0 || cp.Batch < 1 || cp.Stretch < 1 {
		t.Fatalf("paced checkpoint carries due %d batch %d stretch %d", cp.NextDueUnixNano, cp.Batch, cp.Stretch)
	}
	return cp
}

// TestBinaryCheckpointFileRoundTrip pins the binary envelope against the
// JSON one: both must decode back to the same checkpoint value (compared
// through the JSON payload encoding), and DecodeCheckpointFile must
// auto-detect each format from its bytes. A finished free-running instance
// fills every section of the engine state; a paced one mid-run adds the
// tick schedule.
func TestBinaryCheckpointFileRoundTrip(t *testing.T) {
	t.Run("finished", func(t *testing.T) { checkEnvelopesAgree(t, fullCkpt(t)) })
	t.Run("paced", func(t *testing.T) { checkEnvelopesAgree(t, pacedCkpt(t)) })
}

func checkEnvelopesAgree(t *testing.T, cp *InstanceCheckpoint) {
	bin, err := EncodeCheckpointFileBinary(cp)
	if err != nil {
		t.Fatalf("encode binary: %v", err)
	}
	if !IsBinaryCheckpointFile(bin) {
		t.Fatal("binary envelope not detected by its magic")
	}
	if again, _ := EncodeCheckpointFileBinary(cp); !bytes.Equal(bin, again) {
		t.Fatal("binary envelope encoding is not deterministic")
	}
	jsn, err := EncodeCheckpointFile(cp)
	if err != nil {
		t.Fatalf("encode json: %v", err)
	}
	if IsBinaryCheckpointFile(jsn) {
		t.Fatal("JSON envelope misdetected as binary")
	}

	fromBin, err := DecodeCheckpointFile(bin)
	if err != nil {
		t.Fatalf("decode binary: %v", err)
	}
	fromJSON, err := DecodeCheckpointFile(jsn)
	if err != nil {
		t.Fatalf("decode json: %v", err)
	}
	a, err := EncodeCheckpointFile(fromBin)
	if err != nil {
		t.Fatal(err)
	}
	b, err := EncodeCheckpointFile(fromJSON)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("binary and JSON envelopes decoded to different checkpoint values")
	}
	if fromBin.Engine == nil || fromBin.Engine.Epoch != cp.Engine.Epoch {
		t.Fatalf("binary decode engine epoch = %+v, want %d", fromBin.Engine, cp.Engine.Epoch)
	}
	if fromBin.NextDueUnixNano != cp.NextDueUnixNano || fromBin.Batch != cp.Batch || fromBin.Stretch != cp.Stretch {
		t.Fatalf("binary decode tick schedule = due %d batch %d stretch %d, want due %d batch %d stretch %d",
			fromBin.NextDueUnixNano, fromBin.Batch, fromBin.Stretch, cp.NextDueUnixNano, cp.Batch, cp.Stretch)
	}
}

// TestBinaryCheckpointFileRejectsCorruption covers the binary envelope's
// refusal surface: bit flips, truncation at every depth, version skew —
// always an error, never a panic or a silently wrong checkpoint.
func TestBinaryCheckpointFileRejectsCorruption(t *testing.T) {
	cp := testCkpt(7)
	cp.Engine = &engine.Checkpoint{Version: engine.CheckpointVersion, Epoch: 3}
	data, err := EncodeCheckpointFileBinary(cp)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}

	// Any single payload bit flip must trip the CRC.
	for _, off := range []int{binaryFileHeaderLen, len(data) / 2, len(data) - 1} {
		bad := append([]byte(nil), data...)
		bad[off] ^= 0xff
		if _, err := DecodeCheckpointFile(bad); err == nil || !strings.Contains(err.Error(), "checksum") {
			t.Fatalf("flip at %d: decode = %v, want checksum mismatch", off, err)
		}
	}

	// Envelope version skew is refused by name.
	skew := append([]byte(nil), data...)
	skew[4], skew[5] = 0xff, 0xff
	if _, err := DecodeCheckpointFile(skew); err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("version skew decode = %v, want version error", err)
	}

	// Truncation anywhere errors (prefixes shorter than the header
	// included).
	for cut := 4; cut < len(data); cut += 5 {
		if _, err := DecodeCheckpointFile(data[:cut]); err == nil {
			t.Fatalf("truncation to %d of %d bytes accepted", cut, len(data))
		}
	}
}

// corpusSeed returns the bytes of one committed FuzzDecodeCheckpointFile
// corpus file.
func corpusSeed(t testing.TB, name string) []byte {
	t.Helper()
	raw, err := os.ReadFile("testdata/fuzz/FuzzDecodeCheckpointFile/" + name)
	if err != nil {
		t.Fatal(err)
	}
	lit := strings.TrimSuffix(strings.TrimPrefix(string(raw), "go test fuzz v1\n[]byte("), ")\n")
	data, err := strconv.Unquote(lit)
	if err != nil {
		t.Fatalf("%s: not a one-[]byte corpus file: %v", name, err)
	}
	return []byte(data)
}

// withWindow returns a copy of cp whose machine carries the poll window w.
func withWindow(cp *InstanceCheckpoint, w []machine.TailSample) *InstanceCheckpoint {
	out, eng := *cp, *cp.Engine
	eng.Machines = append([]machine.Snapshot(nil), eng.Machines...)
	eng.Machines[0].Window = w
	out.Engine = &eng
	return &out
}

// withSchedule returns a copy of cp that hands a tick schedule over.
func withSchedule(cp *InstanceCheckpoint, batch int) *InstanceCheckpoint {
	out := *cp
	out.NextDueUnixNano, out.Batch, out.Stretch = 1_790_000_000_000_000_000, batch, 8
	return &out
}

// TestCommittedSeedsDecodeOrRefuseByVersion reads the fuzz corpus as
// files written by earlier builds: the version-2 seeds must still decode,
// validate and restore (a layout change without a version bump breaks
// it) whichever envelope version wraps them, and the bare JSON seed —
// no envelope, so no checksum — must be refused by the decoder, before
// anything looks at its version.
func TestCommittedSeedsDecodeOrRefuseByVersion(t *testing.T) {
	cp, err := DecodeCheckpointFile(corpusSeed(t, "binary-valid-v2"))
	if err != nil {
		t.Fatalf("version-2 seed no longer decodes: %v", err)
	}
	srv := New(Config{Lab: testLab})
	defer srv.Close()
	inst, err := srv.CreateInstance(InstanceSpec{Restore: cp})
	if err != nil {
		t.Fatalf("version-2 seed no longer restores: %v", err)
	}
	if st := inst.Status(); st.Epoch != 3 || st.State != StateDone {
		t.Fatalf("restored seed at epoch %d in state %s, want the 3-epoch finished run it was taken from", st.Epoch, st.State)
	}

	// A 700-epoch websearch+brain instance checkpointed by the last build
	// whose machines kept 600 poll samples regardless of their reader. It
	// is still a checkpoint of that state: the instance resumes at epoch
	// 700 holding the 15 newest samples, and its next 300 epochs end where
	// they end when the older 585 were never in the file.
	long, err := DecodeCheckpointFile(corpusSeed(t, "binary-valid-v2-long"))
	if err != nil {
		t.Fatalf("600-sample seed no longer decodes: %v", err)
	}
	window := long.Engine.Machines[0].Window
	if long.Engine.Epoch != 700 || len(window) != 600 {
		t.Fatalf("600-sample seed decodes to epoch %d with %d samples", long.Engine.Epoch, len(window))
	}
	finish := func(cp *InstanceCheckpoint) []byte {
		t.Helper()
		inst, err := srv.CreateInstance(InstanceSpec{Restore: cp, Speed: SpeedMax, MaxEpochs: 1000})
		if err != nil {
			t.Fatalf("600-sample seed no longer restores: %v", err)
		}
		return finalEngineJSON(t, inst)
	}
	got := finish(long)
	if want := finish(withWindow(long, window[len(window)-15:])); !bytes.Equal(got, want) {
		t.Fatalf("the run restored from 600 samples ends differently from the one restored from the newest 15:\n%s\nvs\n%s", trimJSON(got), trimJSON(want))
	}
	var final engine.Checkpoint
	if err := json.Unmarshal(got, &final); err != nil {
		t.Fatal(err)
	}
	if final.Epoch != 1000 || len(final.Machines[0].Window) != 15 {
		t.Fatalf("restored run ended at epoch %d holding %d samples, want 1000 and 15", final.Epoch, len(final.Machines[0].Window))
	}

	// The first envelope-version-2 file: the same shape of instance, paced,
	// with a tick schedule no later build may misplace.
	paced, err := DecodeCheckpointFile(corpusSeed(t, "binary-valid-hrcf2-paced"))
	if err != nil {
		t.Fatalf("envelope version 2 seed no longer decodes: %v", err)
	}
	if paced.NextDueUnixNano != 1_790_000_000_123_456_789 || paced.Batch != 4 || paced.Stretch != 8 || paced.Speed != 50 {
		t.Fatalf("envelope version 2 seed decodes to due %d batch %d stretch %d speed %v", paced.NextDueUnixNano, paced.Batch, paced.Stretch, paced.Speed)
	}
	if inst, err = srv.CreateInstance(InstanceSpec{Restore: paced}); err != nil {
		t.Fatalf("envelope version 2 seed no longer restores: %v", err)
	}
	if st := inst.Status(); st.Epoch < 40 || st.State != StateRunning {
		t.Fatalf("restored paced seed at epoch %d in state %s, want the running 40-epoch instance it was taken from", st.Epoch, st.State)
	}

	if old, err := DecodeCheckpointFile(corpusSeed(t, "legacy-bare")); err == nil || old != nil || !strings.Contains(err.Error(), "no envelope") {
		t.Fatalf("bare JSON seed: checkpoint %v, err = %v, want a refusal naming the missing envelope", old, err)
	}
}

// TestInstanceCheckpointSizeBudget makes state bloat fail a test the way
// a missing codec field does. A long-running websearch+brain instance
// checkpoints its machine, its controller, its error-budget trackers and
// the 15 poll samples its controller can read; history nothing reads back
// (the ring once held 600 samples whatever the reader: 9.6 KB of an
// 11.4 KB file) does not fit under these ceilings.
func TestInstanceCheckpointSizeBudget(t *testing.T) {
	s := testServer(t)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	inst, err := s.CreateInstance(InstanceSpec{BEs: []BEAttachment{{Workload: "brain"}}, Load: 0.6, Speed: SpeedMax, MaxEpochs: 700})
	if err != nil {
		t.Fatal(err)
	}
	awaitInstance(t, inst, "run complete", func() bool { return inst.Status().State == StateDone })

	cp, err := inst.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	file, err := EncodeCheckpointFileBinary(cp)
	if err != nil {
		t.Fatal(err)
	}
	if limit := 2560; len(file) > limit {
		t.Errorf("HRCF checkpoint file of a 700-epoch instance is %d bytes, budget %d", len(file), limit)
	}
	doc := doReq(t, ts.Client(), "POST", ts.URL+"/api/v1/instances/"+inst.ID()+"/checkpoint", nil, 200)
	if limit := 8 << 10; len(doc) > limit {
		t.Errorf("REST checkpoint document of a 700-epoch instance is %d bytes, budget %d", len(doc), limit)
	}
	t.Logf("HRCF file %d bytes, REST document %d bytes", len(file), len(doc))
}
