package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
)

// Checkpoint files on disk are wrapped in an integrity envelope: a
// version, a CRC32-C checksum of the payload, and the serialized
// InstanceCheckpoint itself. A daemon that crashed mid-write (or a disk
// that flipped bits) must never feed a half-written snapshot into a
// restore — a corrupt file is refused with a clear error and the caller
// falls back to the previous good generation, which the writer rotates
// to "<path>.1" before each replacement.
//
// The binary envelope (ckptbinary.go) is the only one written to disk.
// The JSON envelope in this file is read — directories an older daemon
// wrote still resume — and encoded in memory by EncodeCheckpointFile,
// for callers that want the checksummed document as text.

// CheckpointFileVersion is the envelope format version.
const CheckpointFileVersion = 1

// crcTable is the Castagnoli polynomial, the CRC32-C used by filesystems
// and storage protocols for exactly this job.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// checkpointEnvelope is the on-disk frame around a checkpoint payload.
type checkpointEnvelope struct {
	Version  int             `json:"envelope_version"`
	Checksum string          `json:"checksum"` // "crc32c:%08x" over Payload
	Payload  json.RawMessage `json:"payload"`
}

// payloadChecksum hashes the compact (whitespace-free) form of the
// payload: MarshalIndent reflows embedded RawMessage bytes, so the CRC
// must not depend on formatting — only on content.
func payloadChecksum(payload []byte) (string, error) {
	var compact bytes.Buffer
	if err := json.Compact(&compact, payload); err != nil {
		return "", fmt.Errorf("checkpoint payload is not valid JSON: %v", err)
	}
	return fmt.Sprintf("crc32c:%08x", crc32.Checksum(compact.Bytes(), crcTable)), nil
}

// EncodeCheckpointFile serializes a checkpoint into its JSON-enveloped
// form.
func EncodeCheckpointFile(cp *InstanceCheckpoint) ([]byte, error) {
	payload, err := json.Marshal(cp)
	if err != nil {
		return nil, err
	}
	sum, err := payloadChecksum(payload)
	if err != nil {
		return nil, err
	}
	return json.MarshalIndent(checkpointEnvelope{
		Version:  CheckpointFileVersion,
		Checksum: sum,
		Payload:  payload,
	}, "", " ")
}

// DecodeCheckpointFile parses an enveloped checkpoint file, verifying
// the checksum before the payload is trusted. The format is auto-
// detected: files opening with the binary magic decode through the
// binary envelope (ckptbinary.go), everything else through the JSON one.
// A JSON object without a payload — a bare InstanceCheckpoint, as written
// before the envelope existed — carries no checksum to verify and is
// refused.
func DecodeCheckpointFile(data []byte) (*InstanceCheckpoint, error) {
	if IsBinaryCheckpointFile(data) {
		return decodeCheckpointFileBinary(data)
	}
	var env checkpointEnvelope
	if err := json.Unmarshal(data, &env); err != nil {
		return nil, fmt.Errorf("checkpoint file corrupt or truncated: %v", err)
	}
	if env.Payload == nil {
		return nil, fmt.Errorf("checkpoint file has no envelope (no payload, no checksum): refused")
	}
	if env.Version != CheckpointFileVersion {
		return nil, fmt.Errorf("checkpoint file envelope version %d, this build reads version %d", env.Version, CheckpointFileVersion)
	}
	got, sumErr := payloadChecksum(env.Payload)
	if sumErr != nil {
		return nil, fmt.Errorf("checkpoint file corrupt: %v", sumErr)
	}
	if got != env.Checksum {
		return nil, fmt.Errorf("checkpoint file checksum mismatch: header %s, payload %s — file is corrupt", env.Checksum, got)
	}
	var cp InstanceCheckpoint
	if err := json.Unmarshal(env.Payload, &cp); err != nil {
		return nil, fmt.Errorf("checkpoint payload corrupt: %v", err)
	}
	return &cp, nil
}

// WriteCheckpointFileBinary atomically replaces path with a binary-
// enveloped snapshot: a temp file first (rename is atomic, a crash
// mid-write never clobbers the live file), with the previous generation
// rotated to "<path>.1" so one corrupted write still leaves a valid
// snapshot to fall back to.
func WriteCheckpointFileBinary(path string, cp *InstanceCheckpoint) error {
	data, err := EncodeCheckpointFileBinary(cp)
	if err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	if _, err := os.Stat(path); err == nil {
		if err := os.Rename(path, path+".1"); err != nil {
			return err
		}
	}
	return os.Rename(tmp, path)
}

// ReadCheckpointFile reads and verifies one enveloped checkpoint file.
func ReadCheckpointFile(path string) (*InstanceCheckpoint, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return DecodeCheckpointFile(data)
}

// ReadCheckpointFallback reads path, and when it is missing or fails
// verification falls back to the rotated previous generation
// "<path>.1". It returns the path actually restored; when both
// generations are unusable the primary's error is returned (the
// fallback's is folded into it).
func ReadCheckpointFallback(path string) (*InstanceCheckpoint, string, error) {
	cp, err := ReadCheckpointFile(path)
	if err == nil {
		return cp, path, nil
	}
	prev := path + ".1"
	cp2, err2 := ReadCheckpointFile(prev)
	if err2 == nil {
		return cp2, prev, nil
	}
	if os.IsNotExist(err2) {
		return nil, "", err
	}
	return nil, "", fmt.Errorf("%v (fallback %s: %v)", err, prev, err2)
}
