package serve

import (
	"encoding/json"
	"fmt"
	"hash/crc32"

	"heracles/internal/codec"
	"heracles/internal/engine"
)

// The binary checkpoint file format (DESIGN.md §16): the envelope every
// stored checkpoint travels in — heraclesd's files, the supervisor's
// restart checkpoint, shard migration. A version, a CRC32-C over the
// payload, refuse-don't-trust on any mismatch; the payload is the binary
// InstanceCheckpoint encoding, several times faster and orders of
// magnitude lighter on allocation than reflection-driven JSON. Readers
// detect the envelope by magic, so the JSON-enveloped files of older
// daemons (ckptfile.go) still read beside these.
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

// binaryFileMagic distinguishes binary checkpoint files from JSON ones
// (JSON always opens with '{' or whitespace).
var binaryFileMagic = [4]byte{'H', 'R', 'C', 'F'}

// BinaryCheckpointFileVersion is the binary envelope format version this
// build writes. Version 2 added the tick schedule; version 1 files still
// read, as checkpoints without one.
const BinaryCheckpointFileVersion = 2

// binaryFileHeaderLen: magic + u16 version + u32 CRC.
const binaryFileHeaderLen = 4 + 2 + 4

// IsBinaryCheckpointFile reports whether data begins with the binary
// checkpoint file magic.
func IsBinaryCheckpointFile(data []byte) bool {
	return len(data) >= 4 && [4]byte(data[:4]) == binaryFileMagic
}

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

// decodeCheckpointFileBinary parses a binary enveloped checkpoint,
// verifying version and checksum before the payload is trusted.
// DecodeCheckpointFile routes here on magic. Malformed input of any kind
// returns an error, never a panic.
func decodeCheckpointFileBinary(data []byte) (*InstanceCheckpoint, error) {
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
