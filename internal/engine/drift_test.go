package engine_test

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"heracles/internal/engine"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/checkpoint_full.hrcb with the bytes the walk produces (only beside a BinaryVersion bump)")

// fillDistinct sets every exported field reachable from v to a non-zero
// value no other field shares (booleans aside), growing slices and maps
// to two elements and allocating every pointer. A kind it does not know
// fails the test, so a new kind of field extends the filler rather than
// escaping the guard.
func fillDistinct(t *testing.T, v reflect.Value, path string, next *int64) {
	t.Helper()
	*next++
	n := *next
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(n)
	case reflect.Uint8:
		v.SetUint(uint64(n%255) + 1)
	case reflect.Uint, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(uint64(n))
	case reflect.Float32, reflect.Float64:
		v.SetFloat(float64(n) + 0.5)
	case reflect.String:
		v.SetString(fmt.Sprintf("s%d", n))
	case reflect.Ptr:
		v.Set(reflect.New(v.Type().Elem()))
		fillDistinct(t, v.Elem(), path, next)
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 2, 2))
		fallthrough
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			fillDistinct(t, v.Index(i), fmt.Sprintf("%s[%d]", path, i), next)
		}
	case reflect.Map:
		v.Set(reflect.MakeMap(v.Type()))
		for i := 0; i < 2; i++ {
			key := reflect.New(v.Type().Key()).Elem()
			val := reflect.New(v.Type().Elem()).Elem()
			fillDistinct(t, key, path+"[key]", next)
			fillDistinct(t, val, path+"[value]", next)
			v.SetMapIndex(key, val)
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			f := v.Type().Field(i)
			if !f.IsExported() {
				t.Fatalf("%s.%s: unexported field in the checkpoint graph travels in neither codec", path, f.Name)
			}
			fillDistinct(t, v.Field(i), path+"."+f.Name, next)
		}
	default:
		t.Fatalf("%s: fillDistinct does not handle kind %s — extend it (and both codecs)", path, v.Kind())
	}
}

// firstDiff names the first field at which got departs from sent ("" when
// they are equal), so a failure says which field a codec forgot.
func firstDiff(sent, got reflect.Value, path string) string {
	switch sent.Kind() {
	case reflect.Ptr:
		if sent.IsNil() || got.IsNil() {
			if sent.IsNil() != got.IsNil() {
				return fmt.Sprintf("%s: sent nil=%t, got nil=%t", path, sent.IsNil(), got.IsNil())
			}
			return ""
		}
		return firstDiff(sent.Elem(), got.Elem(), path)
	case reflect.Struct:
		for i := 0; i < sent.NumField(); i++ {
			if d := firstDiff(sent.Field(i), got.Field(i), path+"."+sent.Type().Field(i).Name); d != "" {
				return d
			}
		}
		return ""
	case reflect.Slice, reflect.Array:
		if sent.Len() != got.Len() {
			return fmt.Sprintf("%s: sent %d elements, got %d", path, sent.Len(), got.Len())
		}
		for i := 0; i < sent.Len(); i++ {
			if d := firstDiff(sent.Index(i), got.Index(i), fmt.Sprintf("%s[%d]", path, i)); d != "" {
				return d
			}
		}
		return ""
	}
	if !reflect.DeepEqual(sent.Interface(), got.Interface()) {
		return fmt.Sprintf("%s: sent %v, got %v", path, sent.Interface(), got.Interface())
	}
	return ""
}

// TestCodecsCarryEveryCheckpointField is the drift guard between the
// struct graph and its two codecs: with every exported field of the
// Checkpoint graph populated, the binary walk and the tag-driven JSON
// view must each return the value they were given. A field added to any
// struct of the graph and forgotten in binary.go (or hidden from JSON)
// comes back zero and fails here. The walk must also reproduce
// testdata/checkpoint_full.hrcb byte for byte and decode that file to the
// filled value: a field inserted, reordered or re-typed changes the bytes
// even where the round trip still closes.
func TestCodecsCarryEveryCheckpointField(t *testing.T) {
	var cp engine.Checkpoint
	var n int64
	fillDistinct(t, reflect.ValueOf(&cp).Elem(), "Checkpoint", &n)
	if w := cp.Machines[0].Window; len(w) != 2 || w[1].TailLatency == 0 || cp.Machines[1].Last.EMU == 0 {
		t.Fatalf("filler did not reach the telemetry fields: %+v", cp.Machines[0])
	}

	// The golden is rewritten (-update) only beside a BinaryVersion bump.
	const golden = "testdata/checkpoint_full.hrcb"
	if *updateGolden {
		if err := os.WriteFile(golden, cp.EncodeBinary(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got := cp.EncodeBinary(); !bytes.Equal(got, want) {
		i := 0
		for i < len(got) && i < len(want) && got[i] == want[i] {
			i++
		}
		t.Fatalf("the walk wrote %d bytes, %s holds %d; first difference at offset %d", len(got), golden, len(want), i)
	}

	fromBinary, err := engine.DecodeCheckpointBinary(want)
	if err != nil {
		t.Fatalf("binary decode: %v", err)
	}
	if d := firstDiff(reflect.ValueOf(&cp), reflect.ValueOf(fromBinary), "Checkpoint"); d != "" {
		t.Errorf("binary codec dropped or altered a field: %s", d)
	}

	var buf bytes.Buffer
	if err := cp.Encode(&buf); err != nil {
		t.Fatalf("JSON encode: %v", err)
	}
	fromJSON, err := engine.DecodeCheckpoint(&buf)
	if err != nil {
		t.Fatalf("JSON decode: %v", err)
	}
	if d := firstDiff(reflect.ValueOf(&cp), reflect.ValueOf(fromJSON), "Checkpoint"); d != "" {
		t.Errorf("JSON codec dropped or altered a field: %s", d)
	}
}

// TestVersionOneCheckpointsRefused pins the version bumps: state written
// before the telemetry ring shrank (binary layout 1, JSON schema 1),
// state written while the scheduler kept its placement log (binary
// layout 2), and state written without a checksum (binary layout 3), is
// refused with an error naming the version it carries and the one this
// build reads — never half-read.
func TestVersionOneCheckpointsRefused(t *testing.T) {
	cfg := clusterConfig(testJobs(4))
	sc := testScenario(200 * time.Second)
	e := engine.New(cfg)
	e.InstallScenario(sc)
	runStats(e, 20)
	cp := e.Snapshot()
	e.Close()

	names := func(err error, read string) bool {
		return err != nil && strings.Contains(err.Error(), "version 1") && strings.Contains(err.Error(), read)
	}

	for _, v := range []byte{1, 2, 3} {
		data := cp.EncodeBinary()
		data[4], data[5] = v, 0 // the u16 layout version after the magic
		_, err := engine.DecodeCheckpointBinary(data)
		if want := fmt.Sprintf("layout version %d, this build reads version 4", v); err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("version-%d HRCB payload: err = %v, want a refusal naming %q", v, err, want)
		}
	}

	var doc bytes.Buffer
	if err := cp.Encode(&doc); err != nil {
		t.Fatal(err)
	}
	v1 := bytes.Replace(doc.Bytes(), []byte(`"version": 2`), []byte(`"version": 1`), 1)
	if bytes.Equal(v1, doc.Bytes()) {
		t.Fatal("checkpoint document carries no version 2 marker to rewrite")
	}
	old, err := engine.DecodeCheckpoint(bytes.NewReader(v1))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if _, err := engine.Restore(cfg, old, &sc); !names(err, "version 2") {
		t.Fatalf(`"version":1 JSON document: err = %v, want a refusal naming versions 1 and 2`, err)
	}
}
