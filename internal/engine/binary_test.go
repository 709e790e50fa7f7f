package engine_test

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math"
	"os"
	"strings"
	"testing"
	"time"

	"heracles/internal/engine"
)

// TestBinaryCheckpointRoundTrip is the binary codec's equivalent of
// TestCheckpointRoundTrip: snapshot a fully loaded engine (controllers,
// scheduler, scenario, faults and SLO budget all live), push the
// checkpoint through the binary wire format, restore, and require the
// continuation to be bit-identical to an uninterrupted run. It also
// pins that the binary-decoded checkpoint is value-identical to the
// original by comparing JSON re-encodings — the two codecs must be
// interchangeable views of the same state.
func TestBinaryCheckpointRoundTrip(t *testing.T) {
	const epochs = 480
	sc := testScenario(epochs * time.Second)

	ref := engine.New(clusterConfig(testJobs(8)))
	ref.InstallScenario(sc)
	want := runStats(ref, epochs)
	ref.Close()

	for _, k := range []int{60, 240, 419} {
		pre := engine.New(clusterConfig(testJobs(8)))
		pre.InstallScenario(sc)
		runStats(pre, k)
		cp := pre.Snapshot()
		pre.Close()

		data := cp.EncodeBinary()
		if again := cp.EncodeBinary(); !bytes.Equal(data, again) {
			t.Fatalf("k=%d: binary encoding is not deterministic", k)
		}
		decoded, err := engine.DecodeCheckpointBinary(data)
		if err != nil {
			t.Fatalf("k=%d: decode: %v", k, err)
		}
		if decoded.Epoch != uint64(k) {
			t.Fatalf("k=%d: checkpoint records epoch %d", k, decoded.Epoch)
		}

		// The binary round trip must preserve the checkpoint value exactly:
		// its JSON form equals the original's byte for byte.
		var orig, rt bytes.Buffer
		if err := cp.Encode(&orig); err != nil {
			t.Fatalf("k=%d: JSON encode original: %v", k, err)
		}
		if err := decoded.Encode(&rt); err != nil {
			t.Fatalf("k=%d: JSON encode round-tripped: %v", k, err)
		}
		if !bytes.Equal(orig.Bytes(), rt.Bytes()) {
			t.Fatalf("k=%d: binary round trip changed the checkpoint value (JSON forms differ)", k)
		}

		res, err := engine.Restore(clusterConfig(testJobs(8)), decoded, &sc)
		if err != nil {
			t.Fatalf("k=%d: restore: %v", k, err)
		}
		got := runStats(res, epochs-k)
		res.Close()
		for i := range got {
			if got[i] != want[k+i] {
				t.Fatalf("k=%d: binary-restored run diverged at epoch %d (%d after restore):\n%+v\nvs\n%+v",
					k, k+i, i, want[k+i], got[i])
			}
		}
	}
}

// TestBinaryCheckpointRejectsMalformed covers the decoder's failure
// surface: every malformation must come back as an error, never a panic.
func TestBinaryCheckpointRejectsMalformed(t *testing.T) {
	e := engine.New(clusterConfig(testJobs(4)))
	e.InstallScenario(testScenario(200 * time.Second))
	runStats(e, 20)
	data := e.Snapshot().EncodeBinary()
	e.Close()

	if _, err := engine.DecodeCheckpointBinary([]byte(`{"version":1}`)); err == nil || !strings.Contains(err.Error(), `"HRCB"`) {
		t.Fatalf("JSON input: %v, want a refusal naming the HRCB magic", err)
	}
	if _, err := engine.DecodeCheckpointBinary(nil); err == nil {
		t.Fatal("empty input accepted")
	}

	// Version skew: flip the u16 layout version after the magic.
	skew := append([]byte(nil), data...)
	skew[4], skew[5] = 0xff, 0xff
	if _, err := engine.DecodeCheckpointBinary(skew); err == nil {
		t.Fatal("layout version skew accepted")
	}

	// A flipped bit anywhere after the header is refused by the checksum,
	// before the walk reads it.
	for _, off := range []int{10, len(data) / 2, len(data) - 1} {
		flip := bytes.Clone(data)
		flip[off] ^= 0x10
		if _, err := engine.DecodeCheckpointBinary(flip); err == nil || !strings.Contains(err.Error(), "checksum mismatch") {
			t.Fatalf("bit flipped at %d: %v, want a checksum mismatch", off, err)
		}
	}

	// Truncation at every prefix length must error, not panic. Step by a
	// prime so the loop stays cheap while still hitting unaligned cuts.
	for cut := 0; cut < len(data); cut += 7 {
		if _, err := engine.DecodeCheckpointBinary(data[:cut]); err == nil {
			t.Fatalf("truncation to %d of %d bytes accepted", cut, len(data))
		}
	}

	// Trailing garbage is corruption, under a matching checksum too.
	if _, err := engine.DecodeCheckpointBinary(reseal(append(bytes.Clone(data), 0))); err == nil || !strings.Contains(err.Error(), "trailing") {
		t.Fatalf("trailing byte: %v, want a refusal naming it", err)
	}

	// An oversized length claim must be rejected before it sizes an
	// allocation: inflate the machine-count u32 that follows the fixed
	// header fields.
	bomb := append([]byte(nil), data...)
	// Walk to the machine-count u32 the same way the decoder does:
	// 4 magic + 2 version + 4 CRC + 7×8 fixed fields, then the scenario
	// section.
	off := 4 + 2 + 4 + 7*8
	if bomb[off] == 1 { // scenario present: u32 name len + name + 3×8
		nameLen := int(uint32(bomb[off+1]) | uint32(bomb[off+2])<<8 | uint32(bomb[off+3])<<16 | uint32(bomb[off+4])<<24)
		off += 1 + 4 + nameLen + 3*8
	} else {
		off++
	}
	bomb[off], bomb[off+1], bomb[off+2], bomb[off+3] = 0xff, 0xff, 0xff, 0x7f
	if _, err := engine.DecodeCheckpointBinary(reseal(bomb)); err == nil || !strings.Contains(err.Error(), "exceeds remaining") {
		t.Fatalf("oversized machine count: %v, want the count guard's refusal", err)
	}
}

// reseal returns a copy of an HRCB encoding whose checksum matches its
// payload again, so a deliberate corruption reaches the walk.
func reseal(data []byte) []byte {
	out := bytes.Clone(data)
	if len(out) >= 10 {
		binary.LittleEndian.PutUint32(out[6:], crc32.Checksum(out[10:], crc32.MakeTable(crc32.Castagnoli)))
	}
	return out
}

// TestBinaryEncodeBufferReuse pins the zero-steady-state-allocation
// property of AppendBinary: once the scratch buffer has grown to size,
// re-encoding into it allocates nothing.
func TestBinaryEncodeBufferReuse(t *testing.T) {
	e := engine.New(clusterConfig(testJobs(4)))
	e.InstallScenario(testScenario(200 * time.Second))
	runStats(e, 30)
	cp := e.Snapshot()
	e.Close()

	buf := cp.AppendBinary(nil)
	want := append([]byte(nil), buf...)
	if avg := testing.AllocsPerRun(50, func() {
		buf = cp.AppendBinary(buf[:0])
	}); avg != 0 {
		t.Fatalf("AppendBinary into warm buffer allocates %.1f/op, want 0", avg)
	}
	if !bytes.Equal(buf, want) {
		t.Fatal("reused-buffer encode produced different bytes")
	}
}

// FuzzDecodeCheckpointBinary hammers the HRCB walk directly: every input
// is resealed (its checksum recomputed) before it is decoded, so a
// mutation reaches the walk instead of stopping at the CRC, which
// TestBinaryCheckpointRejectsMalformed holds to refusing unsealed ones.
// Any input comes back as an error or a checkpoint, never a panic, and a
// checkpoint it accepts is a fixed point of the codec — its encoding
// decodes, and decodes to a value that encodes to the same bytes
// (compared as bytes, so a NaN the fuzzer plants in a float field still
// equals itself). The structural seeds cut and corrupt the golden, beside
// it whole and relabelled as the retired layouts 2 and 3, which are
// refused by number.
func FuzzDecodeCheckpointBinary(f *testing.F) {
	golden, err := os.ReadFile("testdata/checkpoint_full.hrcb")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(golden)
	for _, cut := range []int{0, 3, 5, 9, 65, 67, len(golden) / 2, len(golden) - 1} {
		f.Add(golden[:cut])
	}
	// The scenario's presence byte follows magic, version, checksum and
	// the seven fixed fields; its string's length gives the machine
	// count's offset.
	const presence = 4 + 2 + 4 + 7*8
	badPresence := bytes.Clone(golden)
	badPresence[presence] = 2
	f.Add(badPresence)
	bomb := bytes.Clone(golden)
	count := presence + 1 + 4 + int(binary.LittleEndian.Uint32(golden[presence+1:])) + 3*8
	binary.LittleEndian.PutUint32(bomb[count:], 0x7fffffff)
	f.Add(bomb)
	for _, v := range []byte{2, 3} {
		retired := bytes.Clone(golden)
		retired[4] = v
		f.Add(retired)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		cp, err := engine.DecodeCheckpointBinary(reseal(data))
		if err != nil {
			if cp != nil {
				t.Fatalf("decode returned both a checkpoint and error %v", err)
			}
			return
		}
		first := cp.EncodeBinary()
		again, err := engine.DecodeCheckpointBinary(first)
		if err != nil {
			t.Fatalf("an accepted checkpoint re-encodes to bytes the decoder refuses: %v", err)
		}
		if second := again.EncodeBinary(); !bytes.Equal(first, second) {
			t.Fatalf("accepted checkpoint is not a fixed point: %d bytes, then %d", len(first), len(second))
		}
	})
}

// TestReadFileFallsBackToPreviousGeneration: a stored engine checkpoint
// whose primary generation does not decode resumes from the generation
// WriteFile rotated to "<path>.1", as heraclesd's envelopes do; with both
// generations unusable the error names both and neither file moves, a
// missing primary resumes from "<path>.1" with nothing set aside, and
// with neither present the error is the primary's not-exist error.
func TestReadFileFallsBackToPreviousGeneration(t *testing.T) {
	good, err := os.ReadFile("testdata/checkpoint_full.hrcb")
	if err != nil {
		t.Fatal(err)
	}
	want, err := engine.DecodeCheckpointBinary(good)
	if err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/cluster.ckpt"
	for _, gen := range [][]byte{good, good[:len(good)-1]} {
		if err := engine.WriteFile(path, gen); err != nil {
			t.Fatal(err)
		}
	}
	cp, err := engine.ReadFile(path)
	if err != nil {
		t.Fatalf("corrupt primary with a good previous generation: %v", err)
	}
	if !bytes.Equal(cp.EncodeBinary(), want.EncodeBinary()) {
		t.Fatal("the fallback decoded a different checkpoint than the previous generation holds")
	}
	if _, used, _ := engine.ReadFallback(path, engine.DecodeCheckpointBinary); used != path+".1" {
		t.Fatalf("read %q, want the previous generation %q", used, path+".1")
	}

	// The fallback set the corrupt primary aside; put another corrupt one
	// beside a corrupt ".1". Nothing decodes, so nothing moves.
	primary, failed := good[:len(good)-3], good[:len(good)-1]
	if err := os.WriteFile(path, primary, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path+".1", good[:len(good)-2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := engine.ReadFile(path); err == nil || !strings.Contains(err.Error(), "fallback") {
		t.Fatalf("both generations corrupt: err %v, want one naming the fallback", err)
	}
	for p, want := range map[string][]byte{path: primary, path + ".failed": failed} {
		if got, err := os.ReadFile(p); err != nil || !bytes.Equal(got, want) {
			t.Errorf("both generations corrupt: %s holds %d bytes (%v), want the %d it held", p, len(got), err, len(want))
		}
	}

	// A missing primary is no corrupt one: ".1" loads, nothing is set aside.
	lone := t.TempDir() + "/lone.ckpt"
	if err := os.WriteFile(lone+".1", good, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, used, err := engine.ReadFallback(lone, engine.DecodeCheckpointBinary); err != nil || used != lone+".1" {
		t.Fatalf("missing primary: read %q (%v), want %q", used, err, lone+".1")
	}
	if _, err := os.Stat(lone + ".failed"); !os.IsNotExist(err) {
		t.Errorf("missing primary: %s.failed exists (%v), want nothing set aside", lone, err)
	}
	if _, err := engine.ReadFile(path + ".missing"); !os.IsNotExist(err) {
		t.Fatalf("no generation at all: err %v, want not-exist", err)
	}
}

// TestReadFileRefusesAFlippedBit: a bare HRCB file carries its own
// checksum, so one bit flipped on disk in a field that decodes either
// way (RootEWMA, 0.25 read back as 0.125) makes ReadFile resume from the
// previous generation instead of returning the wrong value.
func TestReadFileRefusesAFlippedBit(t *testing.T) {
	good := (&engine.Checkpoint{Version: engine.CheckpointVersion, RootEWMA: 0.25}).EncodeBinary()
	path := t.TempDir() + "/cluster.ckpt"
	for range 2 {
		if err := engine.WriteFile(path, good); err != nil {
			t.Fatal(err)
		}
	}
	bad := bytes.Clone(good)
	off := bytes.Index(bad, binary.LittleEndian.AppendUint64(nil, math.Float64bits(0.25)))
	bad[off+6] ^= 0x10 // an exponent bit: 0x3fd0… becomes 0x3fc0…
	if err := os.WriteFile(path, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	cp, used, err := engine.ReadFallback(path, engine.DecodeCheckpointBinary)
	if err != nil || used != path+".1" {
		t.Fatalf("read %q (%v), want the previous generation %q", used, err, path+".1")
	}
	if cp.RootEWMA != 0.25 {
		t.Fatalf("RootEWMA %v, want 0.25", cp.RootEWMA)
	}
}

// TestFallbackResumeKeepsGoodGeneration: a resume that fell back to
// "<path>.1" sets the corrupt primary aside as "<path>.failed", so the
// next write (a daemon's first checkpointer pass, or cmd/cluster -resume
// x -checkpoint x) does not rotate the corrupt bytes over the good
// generation.
func TestFallbackResumeKeepsGoodGeneration(t *testing.T) {
	good, err := os.ReadFile("testdata/checkpoint_full.hrcb")
	if err != nil {
		t.Fatal(err)
	}
	bad := good[:len(good)-1]
	path := t.TempDir() + "/cluster.ckpt"
	for _, gen := range [][]byte{good, bad} {
		if err := engine.WriteFile(path, gen); err != nil {
			t.Fatal(err)
		}
	}
	if _, used, err := engine.ReadFallback(path, engine.DecodeCheckpointBinary); err != nil || used != path+".1" {
		t.Fatalf("resume read %q (%v), want the previous generation %q", used, err, path+".1")
	}
	if err := engine.WriteFile(path, good); err != nil {
		t.Fatal(err)
	}
	for p, want := range map[string][]byte{path + ".1": good, path + ".failed": bad} {
		if got, err := os.ReadFile(p); err != nil || !bytes.Equal(got, want) {
			t.Errorf("%s holds %d bytes (%v), want the %d-byte generation", p, len(got), err, len(want))
		}
	}
}
