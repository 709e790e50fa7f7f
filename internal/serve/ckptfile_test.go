package serve

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"heracles/internal/engine"
)

func testCkpt(epoch int) *InstanceCheckpoint {
	return &InstanceCheckpoint{Version: 1, Name: "t", LC: "websearch", MaxEpochs: epoch}
}

// writeCkpt stores cp the way heraclesd's checkpointer does.
func writeCkpt(t *testing.T, path string, cp *InstanceCheckpoint) {
	t.Helper()
	data, err := AppendCheckpointFileBinary(nil, cp)
	if err != nil {
		t.Fatal(err)
	}
	if err := engine.WriteFile(path, data); err != nil {
		t.Fatal(err)
	}
}

// JSON is not a stored checkpoint format: a bare InstanceCheckpoint
// object (the file form from before any envelope existed) and the
// checksummed JSON envelope daemons wrote before the binary one are both
// refused, whatever they hold, by an error naming the magic a checkpoint
// file opens with.
func TestCheckpointFileRefusesBareJSON(t *testing.T) {
	raw, err := json.Marshal(testCkpt(9))
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	enveloped, err := EncodeCheckpointFile(testCkpt(9))
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	for _, data := range [][]byte{raw, []byte(`{}`), enveloped, nil} {
		if got, err := DecodeCheckpointFile(data); err == nil || got != nil || !strings.Contains(err.Error(), `"HRCF"`) {
			t.Fatalf("decode of %.40q = %+v, %v; want a refusal naming the HRCF magic", data, got, err)
		}
	}
}

func TestCheckpointFileRotationAndFallback(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "i1.ckpt")
	writeCkpt(t, path, testCkpt(1))
	writeCkpt(t, path, testCkpt(2))

	// Primary carries generation 2, the rotated file generation 1.
	cp, src, err := ReadCheckpointFallback(path)
	if err != nil || src != path || cp.MaxEpochs != 2 {
		t.Fatalf("fallback read = %+v from %q (%v), want gen 2 from primary", cp, src, err)
	}
	data, _ := os.ReadFile(path + ".1")
	if prev, err := DecodeCheckpointFile(data); err != nil || prev.MaxEpochs != 1 {
		t.Fatalf("rotated read = %+v (%v), want gen 1", prev, err)
	}

	// Corrupt the primary mid-file: the fallback restores generation 1.
	data, _ = os.ReadFile(path)
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatalf("corrupting primary: %v", err)
	}
	cp, src, err = ReadCheckpointFallback(path)
	if err != nil || src != path+".1" || cp.MaxEpochs != 1 {
		t.Fatalf("fallback after corruption = %+v from %q (%v), want gen 1 from rotated file", cp, src, err)
	}

	// The fallback set the corrupt primary aside as .failed. Both
	// generations corrupt: a clear error naming both, and neither the
	// primary nor the set-aside file moves.
	failed, err := os.ReadFile(path + ".failed")
	if err != nil || !bytes.Equal(failed, data) {
		t.Fatalf("set-aside primary holds %d bytes (%v), want the %d corrupt ones", len(failed), err, len(data))
	}
	if err := os.WriteFile(path, []byte("{a corrupt primary"), 0o644); err != nil {
		t.Fatalf("corrupting primary: %v", err)
	}
	if err := os.WriteFile(path+".1", []byte("{half a json"), 0o644); err != nil {
		t.Fatalf("corrupting rotated: %v", err)
	}
	if _, _, err := ReadCheckpointFallback(path); err == nil || !strings.Contains(err.Error(), "fallback") {
		t.Fatalf("fallback with both corrupt = %v, want combined error", err)
	}
	for p, want := range map[string][]byte{path: []byte("{a corrupt primary"), path + ".failed": failed} {
		if got, err := os.ReadFile(p); err != nil || !bytes.Equal(got, want) {
			t.Errorf("both corrupt: %s holds %d bytes (%v), want the %d it held", p, len(got), err, len(want))
		}
	}

	// Missing primary with no rotated file: plain not-exist error.
	missing := filepath.Join(dir, "nope.ckpt")
	if _, _, err := ReadCheckpointFallback(missing); !os.IsNotExist(err) {
		t.Fatalf("fallback on missing file = %v, want not-exist", err)
	}
}
