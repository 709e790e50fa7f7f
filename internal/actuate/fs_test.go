package actuate

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"heracles/internal/isolation"
)

func newTestFS(t *testing.T) *FSActuator {
	t.Helper()
	return NewFS(t.TempDir(), DefaultLayout())
}

func TestCPUSetRoundTrip(t *testing.T) {
	fs := newTestFS(t)
	want := isolation.NewCPUSet(0, 1, 2, 10, 11)
	if err := fs.SetCPUSet("lc", want); err != nil {
		t.Fatal(err)
	}
	got, err := fs.ReadCPUSet("lc")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v", got.Sorted())
	}
}

func TestCPUSetFileFormat(t *testing.T) {
	root := t.TempDir()
	fs := NewFS(root, DefaultLayout())
	if err := fs.SetCPUSet("be", isolation.RangeCPUSet(28, 35)); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(filepath.Join(root, "sys/fs/cgroup/cpuset/be/cpuset.cpus"))
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != "28-35\n" {
		t.Fatalf("file content %q", string(b))
	}
}

func TestSchemataRoundTrip(t *testing.T) {
	fs := newTestFS(t)
	lc, _ := isolation.NewWayMask(2, 18)
	be, _ := isolation.NewWayMask(0, 2)
	if err := fs.SetSchemata("lc", []isolation.WayMask{lc, lc}); err != nil {
		t.Fatal(err)
	}
	if err := fs.SetSchemata("be", []isolation.WayMask{be, be}); err != nil {
		t.Fatal(err)
	}
	got, err := fs.ReadSchemata("lc")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != lc || got[1] != lc {
		t.Fatalf("schemata = %v", got)
	}
}

func TestSchemataRejectsNonContiguous(t *testing.T) {
	fs := newTestFS(t)
	if err := fs.SetSchemata("lc", []isolation.WayMask{0b1010}); err == nil {
		t.Fatal("non-contiguous mask accepted")
	}
}

func TestSchemataFileFormat(t *testing.T) {
	root := t.TempDir()
	fs := NewFS(root, DefaultLayout())
	m, _ := isolation.NewWayMask(0, 20)
	if err := fs.SetSchemata("lc", []isolation.WayMask{m, m}); err != nil {
		t.Fatal(err)
	}
	b, _ := os.ReadFile(filepath.Join(root, "sys/fs/resctrl/lc/schemata"))
	if strings.TrimSpace(string(b)) != "L3:0=fffff;1=fffff" {
		t.Fatalf("schemata file = %q", string(b))
	}
}

func TestFreqCapRoundTrip(t *testing.T) {
	fs := newTestFS(t)
	cpus := isolation.NewCPUSet(3, 4)
	if err := fs.SetFreqCap(cpus, 1.8); err != nil {
		t.Fatal(err)
	}
	got, err := fs.ReadFreqCap(4)
	if err != nil {
		t.Fatal(err)
	}
	if got != 1.8 {
		t.Fatalf("cap = %v", got)
	}
}

func TestFreqCapFileFormat(t *testing.T) {
	root := t.TempDir()
	fs := NewFS(root, DefaultLayout())
	if err := fs.SetFreqCap(isolation.NewCPUSet(7), 2.3); err != nil {
		t.Fatal(err)
	}
	b, _ := os.ReadFile(filepath.Join(root, "sys/devices/system/cpu/cpu7/cpufreq/scaling_max_freq"))
	if strings.TrimSpace(string(b)) != "2300000" {
		t.Fatalf("scaling_max_freq = %q", string(b))
	}
}

func TestHTBCeilRoundTrip(t *testing.T) {
	fs := newTestFS(t)
	if err := fs.SetHTBCeil("be", 0.55); err != nil {
		t.Fatal(err)
	}
	got, err := fs.ReadHTBCeil("be")
	if err != nil {
		t.Fatal(err)
	}
	if got < 0.549 || got > 0.551 {
		t.Fatalf("ceil = %v", got)
	}
}

func TestReadMissingFileFails(t *testing.T) {
	fs := newTestFS(t)
	if _, err := fs.ReadCPUSet("nope"); err == nil {
		t.Fatal("read of missing group succeeded")
	}
	if _, err := fs.ReadSchemata("nope"); err == nil {
		t.Fatal("read of missing schemata succeeded")
	}
	if _, err := fs.ReadFreqCap(99); err == nil {
		t.Fatal("read of missing cpufreq succeeded")
	}
	if _, err := fs.ReadHTBCeil("nope"); err == nil {
		t.Fatal("read of missing tc class succeeded")
	}
}
