package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"testing"
)

// fillDistinct sets every exported field reachable from v to a non-zero
// value no other field shares (booleans aside), growing slices and maps
// to two elements and allocating every pointer — internal/engine's filler
// (drift_test.go there) plus one rule for ShapeSpec, the graph's only
// recursive type: a struct already being filled twice over is left zero.
// A kind it does not know fails the test.
func fillDistinct(t *testing.T, v reflect.Value, path string, next *int64, open map[reflect.Type]int) {
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
		if open[v.Type().Elem()] < 2 {
			v.Set(reflect.New(v.Type().Elem()))
			fillDistinct(t, v.Elem(), path, next, open)
		}
	case reflect.Slice:
		if open[v.Type().Elem()] >= 2 {
			return
		}
		v.Set(reflect.MakeSlice(v.Type(), 2, 2))
		fallthrough
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			fillDistinct(t, v.Index(i), fmt.Sprintf("%s[%d]", path, i), next, open)
		}
	case reflect.Map:
		v.Set(reflect.MakeMap(v.Type()))
		for i := 0; i < 2; i++ {
			key := reflect.New(v.Type().Key()).Elem()
			val := reflect.New(v.Type().Elem()).Elem()
			fillDistinct(t, key, path+"[key]", next, open)
			fillDistinct(t, val, path+"[value]", next, open)
			v.SetMapIndex(key, val)
		}
	case reflect.Struct:
		open[v.Type()]++
		defer func() { open[v.Type()]-- }()
		for i := 0; i < v.NumField(); i++ {
			f := v.Type().Field(i)
			if !f.IsExported() {
				t.Fatalf("%s.%s: unexported field in the checkpoint graph travels in neither envelope", path, f.Name)
			}
			fillDistinct(t, v.Field(i), path+"."+f.Name, next, open)
		}
	default:
		t.Fatalf("%s: fillDistinct does not handle kind %s — extend it (and both envelopes)", path, v.Kind())
	}
}

// firstDiff names the first field at which got departs from sent ("" when
// they are equal), so a failure says which field an envelope forgot.
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

// TestEnvelopesCarryEveryInstanceCheckpointField is the drift guard
// between InstanceCheckpoint and its two codecs, the twin of
// engine's TestCodecsCarryEveryCheckpointField one level up: with every
// exported field populated — the tick schedule, FleetTasks and a
// ScenarioSpec with nested terms, a clamp and events included, which no
// single real run sets together — the binary envelope and the REST
// document must each return the value they were given. A field added to
// InstanceCheckpoint and forgotten in ckptfile.go (or hidden from JSON)
// comes back zero and is named here.
func TestEnvelopesCarryEveryInstanceCheckpointField(t *testing.T) {
	var cp InstanceCheckpoint
	var n int64
	fillDistinct(t, reflect.ValueOf(&cp).Elem(), "InstanceCheckpoint", &n, map[reflect.Type]int{})
	sc := cp.Scenario
	if !cp.paced() || len(cp.FleetTasks) != 2 || sc == nil || len(sc.Events) != 2 ||
		sc.Load == nil || sc.Load.Clamp == nil || len(sc.Load.Terms) != 2 || sc.Load.Terms[1].Amp == 0 || sc.Load.Terms[1].Terms != nil ||
		cp.Engine == nil || cp.Engine.Budget == nil {
		t.Fatalf("filler did not reach the schedule, fleet tasks, scenario spec or engine state: %+v", cp)
	}

	file, err := EncodeCheckpointFileBinary(&cp)
	if err != nil {
		t.Fatal(err)
	}
	fromFile, err := DecodeCheckpointFile(file)
	if err != nil {
		t.Fatal(err)
	}
	doc, err := json.Marshal(&cp)
	if err != nil {
		t.Fatal(err)
	}
	var fromDoc InstanceCheckpoint
	if err := json.Unmarshal(doc, &fromDoc); err != nil {
		t.Fatal(err)
	}
	for name, got := range map[string]*InstanceCheckpoint{"binary envelope": fromFile, "REST document": &fromDoc} {
		if d := firstDiff(reflect.ValueOf(&cp), reflect.ValueOf(got), "InstanceCheckpoint"); d != "" {
			t.Errorf("the %s dropped or altered a field: %s", name, d)
		}
	}
}

// TestEnvelopeMatchesCommittedBytes is the serve twin of engine's
// checkpoint_full.hrcb pin: the checkpoint
// TestEnvelopesCarryEveryInstanceCheckpointField fills must encode to
// testdata/instance_full.hrcf byte for byte, and that file must decode
// back to it. A field inserted, reordered or re-typed in the envelope
// changes the bytes even where the round trip still closes. -update
// rewrites the file; that belongs only beside a
// BinaryCheckpointFileVersion bump.
func TestEnvelopeMatchesCommittedBytes(t *testing.T) {
	var cp InstanceCheckpoint
	var n int64
	fillDistinct(t, reflect.ValueOf(&cp).Elem(), "InstanceCheckpoint", &n, map[reflect.Type]int{})
	got, err := EncodeCheckpointFileBinary(&cp)
	if err != nil {
		t.Fatal(err)
	}
	const golden = "testdata/instance_full.hrcf"
	if *updateGolden {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		i := 0
		for i < len(got) && i < len(want) && got[i] == want[i] {
			i++
		}
		t.Fatalf("the envelope wrote %d bytes, %s holds %d; first difference at offset %d", len(got), golden, len(want), i)
	}
	fromFile, err := DecodeCheckpointFile(want)
	if err != nil {
		t.Fatalf("decode %s: %v", golden, err)
	}
	if d := firstDiff(reflect.ValueOf(&cp), reflect.ValueOf(fromFile), "InstanceCheckpoint"); d != "" {
		t.Errorf("%s decodes to a different checkpoint: %s", golden, d)
	}
}
