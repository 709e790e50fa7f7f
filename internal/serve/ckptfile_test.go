package serve

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func testCkpt(epoch int) *InstanceCheckpoint {
	return &InstanceCheckpoint{Version: 1, Name: "t", LC: "websearch", MaxEpochs: epoch}
}

func TestCheckpointFileRoundTrip(t *testing.T) {
	cp := testCkpt(42)
	data, err := EncodeCheckpointFile(cp)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	got, err := DecodeCheckpointFile(data)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got.LC != cp.LC || got.MaxEpochs != cp.MaxEpochs || got.Name != cp.Name {
		t.Fatalf("roundtrip = %+v, want %+v", got, cp)
	}
}

func TestCheckpointFileRejectsCorruption(t *testing.T) {
	data, err := EncodeCheckpointFile(testCkpt(7))
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	// Flip one payload byte without breaking the JSON framing: the
	// checkpoint's name "t" becomes "u". MarshalIndent may render the
	// pair with or without a space after the colon.
	bad := data
	for _, pair := range [][2]string{
		{`"name":"t"`, `"name":"u"`},
		{`"name": "t"`, `"name": "u"`},
	} {
		bad = bytes.Replace(data, []byte(pair[0]), []byte(pair[1]), 1)
		if !bytes.Equal(bad, data) {
			break
		}
	}
	if bytes.Equal(bad, data) {
		t.Fatalf("test premise broken: payload byte not flipped in %s", data)
	}
	if _, err := DecodeCheckpointFile(bad); err == nil || !strings.Contains(err.Error(), "checksum") {
		t.Fatalf("decode of corrupted file = %v, want checksum mismatch", err)
	}
}

func TestCheckpointFileRejectsTruncation(t *testing.T) {
	data, err := EncodeCheckpointFile(testCkpt(7))
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	if _, err := DecodeCheckpointFile(data[:len(data)/2]); err == nil || !strings.Contains(err.Error(), "corrupt") {
		t.Fatalf("decode of truncated file = %v, want corrupt/truncated error", err)
	}
	if _, err := DecodeCheckpointFile(nil); err == nil {
		t.Fatal("decode of empty file succeeded")
	}
}

// A bare InstanceCheckpoint object (the file form from before the
// envelope existed) carries no checksum: any JSON object without a
// payload used to be trusted as one. It is refused, whatever it holds.
func TestCheckpointFileRefusesBareJSON(t *testing.T) {
	raw, err := json.Marshal(testCkpt(9))
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	for _, data := range [][]byte{raw, []byte(`{}`), []byte(`{"envelope_version":1,"checksum":"crc32c:00000000"}`)} {
		if got, err := DecodeCheckpointFile(data); err == nil || got != nil || !strings.Contains(err.Error(), "no envelope") {
			t.Fatalf("decode of %s = %+v, %v; want a refusal naming the missing envelope", data, got, err)
		}
	}
}

func TestCheckpointFileRotationAndFallback(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "i1.ckpt")

	if err := WriteCheckpointFileBinary(path, testCkpt(1)); err != nil {
		t.Fatalf("write 1: %v", err)
	}
	if err := WriteCheckpointFileBinary(path, testCkpt(2)); err != nil {
		t.Fatalf("write 2: %v", err)
	}

	// Primary carries generation 2, the rotated file generation 1.
	cp, src, err := ReadCheckpointFallback(path)
	if err != nil || src != path || cp.MaxEpochs != 2 {
		t.Fatalf("fallback read = %+v from %q (%v), want gen 2 from primary", cp, src, err)
	}
	prev, err := ReadCheckpointFile(path + ".1")
	if err != nil || prev.MaxEpochs != 1 {
		t.Fatalf("rotated read = %+v (%v), want gen 1", prev, err)
	}

	// Corrupt the primary mid-file: the fallback restores generation 1.
	data, _ := os.ReadFile(path)
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatalf("corrupting primary: %v", err)
	}
	cp, src, err = ReadCheckpointFallback(path)
	if err != nil || src != path+".1" || cp.MaxEpochs != 1 {
		t.Fatalf("fallback after corruption = %+v from %q (%v), want gen 1 from rotated file", cp, src, err)
	}

	// Both generations corrupt: a clear error naming both.
	if err := os.WriteFile(path+".1", []byte("{half a json"), 0o644); err != nil {
		t.Fatalf("corrupting rotated: %v", err)
	}
	if _, _, err := ReadCheckpointFallback(path); err == nil || !strings.Contains(err.Error(), "fallback") {
		t.Fatalf("fallback with both corrupt = %v, want combined error", err)
	}

	// Missing primary with no rotated file: plain not-exist error.
	missing := filepath.Join(dir, "nope.ckpt")
	if _, _, err := ReadCheckpointFallback(missing); !os.IsNotExist(err) {
		t.Fatalf("fallback on missing file = %v, want not-exist", err)
	}
}
