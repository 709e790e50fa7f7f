package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"

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
// over everything after the header, then what walkEnvelope visits, in
// the order it visits it.
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
	// Marshalled before anything is appended: a failure leaves buf as it
	// was, which the restart checkpoint's in-place refresh relies on.
	var spec []byte
	if cp.Scenario != nil {
		var err error
		if spec, err = json.Marshal(cp.Scenario); err != nil {
			return nil, fmt.Errorf("encode checkpoint scenario spec: %w", err)
		}
	}

	start := len(buf)
	w := codec.NewWriter(append(buf, binaryFileMagic[:]...))
	w.U16(BinaryCheckpointFileVersion)
	crcOff := w.Reserve32()
	c := codec.Encoder(w)
	walkEnvelope(&c, cp, BinaryCheckpointFileVersion, &spec)

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

	cp := &InstanceCheckpoint{}
	var spec []byte
	c := codec.Decoder(r)
	eng := walkEnvelope(&c, cp, version, &spec)
	if spec != nil {
		cp.Scenario = &ScenarioSpec{}
		if err := json.Unmarshal(spec, cp.Scenario); err != nil {
			return nil, fmt.Errorf("checkpoint scenario spec corrupt: %v", err)
		}
	}
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("checkpoint payload corrupt: %v", err)
	}
	if eng != nil {
		var err error
		if cp.Engine, err = engine.DecodeCheckpointBinary(eng); err != nil {
			return nil, fmt.Errorf("checkpoint engine state corrupt: %v", err)
		}
	}
	if err := r.Expect(); err != nil {
		return nil, fmt.Errorf("checkpoint payload corrupt: %v", err)
	}
	return cp, nil
}

// walkEnvelope is the envelope payload of version v, listed once:
// AppendCheckpointFileBinary runs it over a Writer at
// BinaryCheckpointFileVersion, DecodeCheckpointFile over a Reader at the
// version the file names. It only frames the two nested encodings, each
// behind a presence byte and a uint32 length: spec is the scenario
// spec's JSON (marshalled before an encode, a view into the input after
// a decode, nil when there is none), and the engine's HRCB bytes are
// appended by engine.Checkpoint.AppendBinary on encode and returned as a
// view on decode, for the caller to parse.
func walkEnvelope(c *codec.Coder, cp *InstanceCheckpoint, v uint16, spec *[]byte) (eng []byte) {
	c.Int(&cp.Version)
	c.String(&cp.Name)
	c.String(&cp.LC)
	c.Bool(&cp.Compact)
	c.F64(&cp.Speed)
	c.Int(&cp.MaxEpochs)
	if v >= 2 {
		c.I64(&cp.NextDueUnixNano)
		c.Int(&cp.Batch)
		c.Int(&cp.Stretch)
	}
	has := *spec != nil
	if c.Bool(&has); has {
		c.Nest(spec, nil)
	}
	c.Ints(&cp.FleetTasks)
	has = cp.Engine != nil
	if c.Bool(&has); has {
		c.Nest(&eng, cp.Engine.AppendBinary)
	}
	return eng
}

// ReadCheckpointFallback reads the checkpoint file at path, or the
// previous generation when it is missing or corrupt (engine.ReadFallback),
// and returns the path it restored.
func ReadCheckpointFallback(path string) (*InstanceCheckpoint, string, error) {
	return engine.ReadFallback(path, DecodeCheckpointFile)
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
