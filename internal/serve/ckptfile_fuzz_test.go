package serve

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// FuzzDecodeCheckpointFile hammers the checkpoint envelope decoder and
// the ReadCheckpointFallback path with arbitrary bytes: truncated,
// bit-flipped and CRC-mismatched inputs must come back as errors —
// never a panic, and never a trusted payload that fails verification.
// A valid rotated ".1" generation sits next to every fuzzed primary, so
// the fallback must always recover regardless of how mangled the
// primary is.
func FuzzDecodeCheckpointFile(f *testing.F) {
	// A genuine envelope from a live instance seeds the structure-aware
	// mutations.
	srv := New(Config{Lab: testLab})
	defer srv.Close()
	inst, err := srv.CreateInstance(InstanceSpec{Speed: SpeedMax, MaxEpochs: 3})
	if err != nil {
		f.Fatalf("create: %v", err)
	}
	awaitInstance(f, inst, "seed instance done", func() bool {
		return inst.Status().State == StateDone
	})
	cp, err := inst.Checkpoint()
	if err != nil {
		f.Fatalf("checkpoint: %v", err)
	}
	valid, err := EncodeCheckpointFile(cp)
	if err != nil {
		f.Fatalf("encode: %v", err)
	}

	f.Add(valid)
	f.Add(valid[:len(valid)/2]) // truncated mid-payload
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)/2] ^= 0x40 // bit flip inside the payload
	f.Add(flipped)
	// Intact payload under a stale checksum header.
	f.Add(bytes.Replace(valid, []byte(`"crc32c:`), []byte(`"crc32c:0`), 1))
	// A bare checkpoint object, pre-envelope: refused, it has no checksum.
	f.Add([]byte(`{"version":1,"lc":"websearch","engine":null}`))
	f.Add([]byte(`{"envelope_version":1,"checksum":"crc32c:00000000","payload":{}}`))
	f.Add([]byte(`{`))
	f.Add([]byte(``))

	// The binary envelope's failure surface: truncations, payload bit
	// flips (CRC mismatch), envelope version skew, oversized length
	// claims deep in the nested engine encoding.
	validBin, err := EncodeCheckpointFileBinary(cp)
	if err != nil {
		f.Fatalf("encode binary: %v", err)
	}
	f.Add(validBin)
	// Envelope version 2 with its tick schedule filled in.
	paced := withSchedule(cp, 4)
	paced.Speed, paced.MaxEpochs = 50, 0
	pacedBin, err := EncodeCheckpointFileBinary(paced)
	if err != nil {
		f.Fatalf("encode binary: %v", err)
	}
	f.Add(pacedBin)
	f.Add(validBin[:4])               // bare magic
	f.Add(validBin[:len(validBin)/2]) // truncated mid-payload
	binFlipped := append([]byte(nil), validBin...)
	binFlipped[len(binFlipped)/2] ^= 0x40
	f.Add(binFlipped)
	binSkew := append([]byte(nil), validBin...)
	binSkew[4], binSkew[5] = 0xff, 0xff
	f.Add(binSkew)
	// Inflate a length prefix deep in the payload; the CRC is left stale
	// too, so this doubles as a checksum-mismatch seed for mutation.
	binBomb := append([]byte(nil), validBin...)
	for i := binaryFileHeaderLen; i+4 <= len(binBomb); i++ {
		if binBomb[i] == 0 && binBomb[i+1] == 0 && binBomb[i+2] == 0 && binBomb[i+3] == 0 {
			binBomb[i], binBomb[i+1], binBomb[i+2], binBomb[i+3] = 0xff, 0xff, 0xff, 0x7f
			break
		}
	}
	f.Add(binBomb)

	dir := f.TempDir()
	prev := filepath.Join(dir, "ckpt.json.1")
	if err := os.WriteFile(prev, valid, 0o644); err != nil {
		f.Fatal(err)
	}
	primary := strings.TrimSuffix(prev, ".1")

	f.Fuzz(func(t *testing.T, data []byte) {
		cp, err := DecodeCheckpointFile(data)
		if err == nil {
			// Decoded payloads may still be semantically invalid; the
			// validator must reject them with an error, not a panic.
			_ = validateCheckpoint(cp)
		} else if cp != nil {
			t.Fatalf("decode returned both a checkpoint and error %v", err)
		}

		if err := os.WriteFile(primary, data, 0o644); err != nil {
			t.Fatal(err)
		}
		got, used, err := ReadCheckpointFallback(primary)
		if err != nil {
			t.Fatalf("fallback generation is valid, yet restore failed: %v", err)
		}
		if got == nil {
			t.Fatal("nil checkpoint without error")
		}
		if used != primary && used != prev {
			t.Fatalf("restored from unexpected path %q", used)
		}
	})
}
