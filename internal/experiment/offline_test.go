package experiment

import (
	"fmt"
	"go/format"
	"math"
	"os"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"

	"heracles/internal/hw"
	"heracles/internal/machine"
	"heracles/internal/workload"
)

// builtinConfigs are the hardware configurations the offline table
// covers, named as the drift messages name them.
var builtinConfigs = []struct {
	name string
	cfg  hw.Config
}{
	{"DefaultConfig", hw.DefaultConfig()},
	{"CompactConfig", hw.CompactConfig()},
}

const offlineHeader = `// Code generated by TestOfflineCalibrations; DO NOT EDIT.
//
// The offline calibration table: the calibrated SLO, PeakQPS and
// GuaranteedGHz and the DRAM bandwidth model (§4.2) of every built-in LC
// spec on hw.DefaultConfig() and hw.CompactConfig(), as the live path
// (machine.CalibrateLC, Lab.profileDRAM) computes them. Lab.LC and
// Lab.DRAMModel use an entry only when the lab's hardware and the
// workload's spec equal its key in full; any other input calibrates live.
// What the key cannot see is the model code itself: TestOfflineCalibrations
// recomputes every entry live and fails on any bit of drift. Durations are
// in nanoseconds. Regenerate with
//
//	go test ./internal/experiment -run TestOfflineCalibrations -update

package experiment

import (
	"heracles/internal/cache"
	"heracles/internal/hw"
	"heracles/internal/workload"
)

var offlineCalibrations = `

// TestOfflineCalibrations generates and guards the offline table: every
// entry equals, bit for bit, what the live path computes for its key, in
// the order builtinConfigs × workload.LCSpecs(). Under -update it
// rewrites calibrations.go instead.
func TestOfflineCalibrations(t *testing.T) {
	var live []offlineCalibration
	var names []string
	for _, bc := range builtinConfigs {
		for _, spec := range workload.LCSpecs() {
			wl := machine.CalibrateLC(bc.cfg, spec)
			live = append(live, offlineCalibration{cfg: bc.cfg, lc: *wl, dram: (&Lab{Cfg: bc.cfg}).profileDRAM(wl)})
			names = append(names, spec.Name+" on hw."+bc.name+"()")
		}
	}
	if *update {
		var b strings.Builder
		b.WriteString(offlineHeader)
		if err := writeLiteral(&b, reflect.ValueOf(live), true); err != nil {
			t.Fatal(err)
		}
		src, err := format.Source([]byte(b.String()))
		if err != nil {
			t.Fatalf("generated source does not parse: %v", err)
		}
		if err := os.WriteFile("calibrations.go", src, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	const regen = "regenerate with go test ./internal/experiment -run TestOfflineCalibrations -update"
	if len(offlineCalibrations) != len(live) {
		t.Fatalf("the offline table holds %d entries, the built-in specs and configurations make %d; %s",
			len(offlineCalibrations), len(live), regen)
	}
	for i, want := range live {
		if d := firstDiff(reflect.ValueOf(offlineCalibrations[i]), reflect.ValueOf(want), ""); d != "" {
			t.Errorf("offline entry %d (%s): %s; %s", i, names[i], d, regen)
		}
	}
}

// TestOfflineKeysCoverEveryField: an entry answers only its own key. A
// one-step move of any field of the hardware configuration, of the spec
// or of one of its cache components, or of the component count, misses
// the table, as does a spec that shares only the name. Fields are found
// by reflection, so one added later is covered without editing this
// test. The table holds exactly the built-in specs on both
// configurations.
func TestOfflineKeysCoverEveryField(t *testing.T) {
	if want := len(builtinConfigs) * len(workload.LCSpecs()); len(offlineCalibrations) != want {
		t.Fatalf("the offline table holds %d entries, want %d", len(offlineCalibrations), want)
	}
	for _, bc := range builtinConfigs {
		for _, spec := range workload.LCSpecs() {
			entry := spec.Name + " on hw." + bc.name + "()"
			if offlineFor(bc.cfg, spec) == nil {
				t.Fatalf("%s: no offline entry", entry)
			}
			for n := 0; ; n++ {
				cfg := bc.cfg
				path := perturbLeaf(t, reflect.ValueOf(&cfg).Elem(), n, "cfg")
				if path == "" {
					break
				}
				if offlineFor(cfg, spec) != nil {
					t.Errorf("%s: moving %s still hits the table", entry, path)
				}
			}
			for n := 0; ; n++ {
				s := cloneSpec(spec)
				path := perturbLeaf(t, reflect.ValueOf(&s).Elem(), n, "spec")
				if path == "" {
					break
				}
				if offlineFor(bc.cfg, s) != nil {
					t.Errorf("%s: moving %s still hits the table", entry, path)
				}
			}
			longer, shorter := cloneSpec(spec), cloneSpec(spec)
			longer.CacheComponents = append(longer.CacheComponents, longer.CacheComponents[0])
			shorter.CacheComponents = shorter.CacheComponents[:len(shorter.CacheComponents)-1]
			for _, s := range []workload.LCSpec{longer, shorter, {Name: spec.Name}} {
				if offlineFor(bc.cfg, s) != nil {
					t.Errorf("%s: a spec with %d cache components and name %q still hits the table",
						entry, len(s.CacheComponents), s.Name)
				}
			}
		}
	}
}

func cloneSpec(s workload.LCSpec) workload.LCSpec {
	s.CacheComponents = slices.Clone(s.CacheComponents)
	return s
}

// perturbLeaf moves the n-th scalar of v (struct fields and slice
// elements in order, from 0) by the smallest step its kind has and
// returns its path, or "" when v has no n-th scalar.
func perturbLeaf(t *testing.T, v reflect.Value, n int, path string) string {
	var walk func(v reflect.Value, path string) string
	walk = func(v reflect.Value, path string) string {
		switch v.Kind() {
		case reflect.Struct:
			for i := range v.NumField() {
				if p := walk(v.Field(i), path+"."+v.Type().Field(i).Name); p != "" {
					return p
				}
			}
			return ""
		case reflect.Slice:
			for i := range v.Len() {
				if p := walk(v.Index(i), fmt.Sprintf("%s[%d]", path, i)); p != "" {
					return p
				}
			}
			return ""
		}
		if n--; n >= 0 {
			return ""
		}
		switch v.Kind() {
		case reflect.Float64:
			v.SetFloat(math.Nextafter(v.Float(), math.Inf(1)))
		case reflect.Int, reflect.Int64:
			v.SetInt(v.Int() + 1)
		case reflect.String:
			v.SetString(v.String() + "'")
		case reflect.Bool:
			v.SetBool(!v.Bool())
		default:
			t.Fatalf("%s: no perturbation for a %v", path, v.Kind())
		}
		return path
	}
	return walk(v, path)
}

// firstDiff returns the path of the first scalar in which a and b differ,
// floats compared bit for bit, with both values; or "" when none does.
func firstDiff(a, b reflect.Value, path string) string {
	switch a.Kind() {
	case reflect.Pointer:
		if a.IsNil() || b.IsNil() {
			if a.IsNil() != b.IsNil() {
				return path + " (nil on one side)"
			}
			return ""
		}
		return firstDiff(a.Elem(), b.Elem(), path)
	case reflect.Struct:
		for i := range a.NumField() {
			if d := firstDiff(a.Field(i), b.Field(i), strings.TrimPrefix(path+"."+a.Type().Field(i).Name, ".")); d != "" {
				return d
			}
		}
		return ""
	case reflect.Slice:
		if a.Len() != b.Len() {
			return fmt.Sprintf("%s has %d elements, live %d", path, a.Len(), b.Len())
		}
		for i := range a.Len() {
			if d := firstDiff(a.Index(i), b.Index(i), fmt.Sprintf("%s[%d]", path, i)); d != "" {
				return d
			}
		}
		return ""
	case reflect.Float64:
		if math.Float64bits(a.Float()) != math.Float64bits(b.Float()) {
			return fmt.Sprintf("%s is %v, live %v", path, a.Float(), b.Float())
		}
	case reflect.Int, reflect.Int64:
		if a.Int() != b.Int() {
			return fmt.Sprintf("%s is %d, live %d", path, a.Int(), b.Int())
		}
	case reflect.String:
		if a.String() != b.String() {
			return fmt.Sprintf("%s is %q, live %q", path, a.String(), b.String())
		}
	case reflect.Bool:
		if a.Bool() != b.Bool() {
			return fmt.Sprintf("%s is %v, live %v", path, a.Bool(), b.Bool())
		}
	default:
		return fmt.Sprintf("%s: cannot compare a %v", path, a.Kind())
	}
	return ""
}

// writeLiteral writes v as a Go composite literal: every struct field
// keyed, zero or not, and floats in the shortest form that parses back
// to the same bits. typed writes v's type; a composite's elements elide
// theirs, and a slice of scalars sits on one line.
func writeLiteral(b *strings.Builder, v reflect.Value, typed bool) error {
	switch v.Kind() {
	case reflect.Pointer:
		b.WriteString("&")
		return writeLiteral(b, v.Elem(), true)
	case reflect.Struct:
		writeType(b, v, typed)
		b.WriteString("{\n")
		for i := range v.NumField() {
			b.WriteString(v.Type().Field(i).Name + ": ")
			if err := writeLiteral(b, v.Field(i), true); err != nil {
				return err
			}
			b.WriteString(",\n")
		}
		b.WriteString("}")
	case reflect.Slice:
		writeType(b, v, typed)
		k := v.Type().Elem().Kind()
		scalars := k == reflect.Float64 || k == reflect.Int
		b.WriteString("{")
		if !scalars {
			b.WriteString("\n")
		}
		for i := range v.Len() {
			if i > 0 && scalars {
				b.WriteString(", ")
			}
			if err := writeLiteral(b, v.Index(i), false); err != nil {
				return err
			}
			if !scalars {
				b.WriteString(",\n")
			}
		}
		b.WriteString("}")
	case reflect.Float64:
		x := v.Float()
		if math.IsNaN(x) || math.IsInf(x, 0) || (x == 0 && math.Signbit(x)) {
			return fmt.Errorf("%v has no Go constant of the same bits", x)
		}
		b.WriteString(strconv.FormatFloat(x, 'g', -1, 64))
	case reflect.Int, reflect.Int64:
		b.WriteString(strconv.FormatInt(v.Int(), 10))
	case reflect.String:
		b.WriteString(strconv.Quote(v.String()))
	case reflect.Bool:
		b.WriteString(strconv.FormatBool(v.Bool()))
	default:
		return fmt.Errorf("no literal for a %v", v.Kind())
	}
	return nil
}

// writeType writes v's type as the generated file names it, if typed.
func writeType(b *strings.Builder, v reflect.Value, typed bool) {
	if typed {
		b.WriteString(strings.ReplaceAll(v.Type().String(), "experiment.", ""))
	}
}
