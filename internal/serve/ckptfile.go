package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"

	"heracles/internal/codec"
	"heracles/internal/engine"
)

// The checkpoint file format (DESIGN.md §16): the envelope every stored
// checkpoint travels in — heraclesd's files, the supervisor's restart
// checkpoint, shard migration. A version, a CRC32-C over the payload,
// refuse-don't-trust on any mismatch: a daemon that crashed mid-write (or
// a disk that flipped bits) must never feed a half-written snapshot into
// a restore, so a corrupt file is refused with a clear error and the
// caller falls back to the previous generation, which engine.WriteFile
// rotates to "<path>.1" before each replacement. It is the only format
// read: a file without the magic, any JSON included, is refused by name.
//
// Layout: 4-byte magic "HRCF", uint16 envelope version, uint32 CRC32-C
// over everything after the header, then the payload:
//
//	i64 checkpoint version, string name, string lc, bool compact,
//	f64 speed, i64 max epochs,
//	i64 next due (unix ns), i64 batch, i64 stretch   (envelope version 2 on),
//	presence byte + uint32-prefixed ScenarioSpec JSON,
//	uint32-prefixed fleet task indexes,
//	presence byte + uint32-prefixed engine binary checkpoint (HRCB).
//
// The scenario spec stays JSON inside the binary envelope deliberately:
// it is a small, schema-bearing operator artifact (the same bytes the
// create API accepts), not bulk state worth a hand-rolled layout.

// binaryFileMagic opens every checkpoint file.
var binaryFileMagic = [4]byte{'H', 'R', 'C', 'F'}

// BinaryCheckpointFileVersion is the binary envelope format version this
// build writes. Version 2 added the tick schedule; version 1 files still
// read, as checkpoints without one.
const BinaryCheckpointFileVersion = 2

// binaryFileHeaderLen: magic + u16 version + u32 CRC.
const binaryFileHeaderLen = 4 + 2 + 4

// crcTable is the Castagnoli polynomial, the CRC32-C used by filesystems
// and storage protocols for exactly this job.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// EncodeCheckpointFileBinary serialises a checkpoint into its binary
// enveloped file form.
func EncodeCheckpointFileBinary(cp *InstanceCheckpoint) ([]byte, error) {
	return AppendCheckpointFileBinary(nil, cp)
}

// AppendCheckpointFileBinary serialises a checkpoint into its binary
// enveloped file form, appending to buf (pass scratch from a previous
// encode to amortise allocation).
func AppendCheckpointFileBinary(buf []byte, cp *InstanceCheckpoint) ([]byte, error) {
	var scJSON []byte
	if cp.Scenario != nil {
		var err error
		if scJSON, err = json.Marshal(cp.Scenario); err != nil {
			return nil, fmt.Errorf("encode checkpoint scenario spec: %w", err)
		}
	}

	start := len(buf)
	w := codec.NewWriter(append(buf, binaryFileMagic[:]...))
	w.U16(BinaryCheckpointFileVersion)
	crcOff := w.Reserve32()

	w.Int(cp.Version)
	w.String(cp.Name)
	w.String(cp.LC)
	w.Bool(cp.Compact)
	w.F64(cp.Speed)
	w.Int(cp.MaxEpochs)
	w.I64(cp.NextDueUnixNano)
	w.Int(cp.Batch)
	w.Int(cp.Stretch)
	w.Bool(cp.Scenario != nil)
	if cp.Scenario != nil {
		w.Bytes32(scJSON)
	}
	w.Ints(cp.FleetTasks)
	w.Bool(cp.Engine != nil)
	if cp.Engine != nil {
		w.Nest(cp.Engine.AppendBinary)
	}

	out := w.Bytes()
	w.Patch32(crcOff, crc32.Checksum(out[start+binaryFileHeaderLen:], crcTable))
	return out, nil
}

// DecodeCheckpointFile parses a checkpoint file, verifying magic, version
// and checksum before the payload is trusted. Malformed input of any kind
// returns an error, never a panic.
func DecodeCheckpointFile(data []byte) (*InstanceCheckpoint, error) {
	if !bytes.HasPrefix(data, binaryFileMagic[:]) {
		return nil, fmt.Errorf("not a checkpoint file: missing %q magic", binaryFileMagic)
	}
	if len(data) < binaryFileHeaderLen {
		return nil, fmt.Errorf("checkpoint file truncated: %d bytes, envelope header is %d", len(data), binaryFileHeaderLen)
	}
	r := codec.NewReader(data[4:])
	version := r.U16()
	if version < 1 || version > BinaryCheckpointFileVersion {
		return nil, fmt.Errorf("checkpoint file envelope version %d, this build reads versions 1 to %d", version, BinaryCheckpointFileVersion)
	}
	sum := r.U32()
	if got := crc32.Checksum(data[binaryFileHeaderLen:], crcTable); got != sum {
		return nil, fmt.Errorf("checkpoint file checksum mismatch: header crc32c:%08x, payload crc32c:%08x — file is corrupt", sum, got)
	}

	cp := &InstanceCheckpoint{
		Version:   r.Int(),
		Name:      r.String(),
		LC:        r.String(),
		Compact:   r.Bool(),
		Speed:     r.F64(),
		MaxEpochs: r.Int(),
	}
	if version >= 2 {
		cp.NextDueUnixNano, cp.Batch, cp.Stretch = r.I64(), r.Int(), r.Int()
	}
	if r.Bool() {
		spec := &ScenarioSpec{}
		if raw := r.Bytes32(); r.Err() == nil {
			if err := json.Unmarshal(raw, spec); err != nil {
				return nil, fmt.Errorf("checkpoint scenario spec corrupt: %v", err)
			}
		}
		cp.Scenario = spec
	}
	cp.FleetTasks = r.Ints()
	if r.Bool() {
		raw := r.Bytes32()
		if r.Err() != nil {
			return nil, fmt.Errorf("checkpoint payload corrupt: %v", r.Err())
		}
		eng, err := engine.DecodeCheckpointBinary(raw)
		if err != nil {
			return nil, fmt.Errorf("checkpoint engine state corrupt: %v", err)
		}
		cp.Engine = eng
	}
	if err := r.Expect(); err != nil {
		return nil, fmt.Errorf("checkpoint payload corrupt: %v", err)
	}
	return cp, nil
}

// ReadCheckpointFallback reads path, and when it is missing or fails
// verification falls back to the rotated previous generation
// "<path>.1". It returns the path actually restored; when both
// generations are unusable the primary's error is returned (the
// fallback's is folded into it).
func ReadCheckpointFallback(path string) (*InstanceCheckpoint, string, error) {
	read := func(p string) (*InstanceCheckpoint, error) {
		data, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		return DecodeCheckpointFile(data)
	}
	cp, err := read(path)
	if err == nil {
		return cp, path, nil
	}
	prev := path + ".1"
	cp2, err2 := read(prev)
	if err2 == nil {
		return cp2, prev, nil
	}
	if os.IsNotExist(err2) {
		return nil, "", err
	}
	return nil, "", fmt.Errorf("%v (fallback %s: %v)", err, prev, err2)
}

// EncodeCheckpointFile serialises a checkpoint into the indented JSON
// envelope daemons before the binary one stored ({"envelope_version": 1,
// "checksum": "crc32c:…", "payload": …}). Nothing reads it — no decoder
// for it exists and DecodeCheckpointFile refuses it — and nothing stores
// it. It stays only because the benchmark harness's serve.ckpt_file_json_ms
// rung times it beside the binary envelope.
func EncodeCheckpointFile(cp *InstanceCheckpoint) ([]byte, error) {
	payload, err := json.Marshal(cp)
	if err != nil {
		return nil, err
	}
	return json.MarshalIndent(struct {
		Version  int             `json:"envelope_version"`
		Checksum string          `json:"checksum"`
		Payload  json.RawMessage `json:"payload"`
	}{1, fmt.Sprintf("crc32c:%08x", crc32.Checksum(payload, crcTable)), payload}, "", " ")
}
