package isolation

import (
	"math"
	"reflect"
	"testing"
	"testing/quick"
)

func TestCPUSetString(t *testing.T) {
	cases := []struct {
		cpus []int
		want string
	}{
		{nil, ""},
		{[]int{3}, "3"},
		{[]int{0, 1, 2, 3}, "0-3"},
		{[]int{0, 1, 2, 8, 10, 11}, "0-2,8,10-11"},
		{[]int{5, 3, 4}, "3-5"},
	}
	for _, c := range cases {
		if got := NewCPUSet(c.cpus...).String(); got != c.want {
			t.Fatalf("%v -> %q, want %q", c.cpus, got, c.want)
		}
	}
}

func TestParseCPUSet(t *testing.T) {
	s, err := ParseCPUSet("0-2,8,10-11")
	if err != nil {
		t.Fatal(err)
	}
	want := NewCPUSet(0, 1, 2, 8, 10, 11)
	if !reflect.DeepEqual(s, want) {
		t.Fatalf("parsed %v", s.Sorted())
	}
	if empty, err := ParseCPUSet("  "); err != nil || empty.Len() != 0 {
		t.Fatalf("empty parse: %v %v", empty, err)
	}
}

func TestParseCPUSetErrors(t *testing.T) {
	for _, bad := range []string{"a", "1-", "-3", "3-1", "1,,2", "1-2-3"} {
		if _, err := ParseCPUSet(bad); err == nil {
			t.Fatalf("accepted %q", bad)
		}
	}
}

func TestCPUSetRoundTripProperty(t *testing.T) {
	if err := quick.Check(func(ids []uint8) bool {
		s := NewCPUSet()
		for _, id := range ids {
			s.Add(int(id))
		}
		parsed, err := ParseCPUSet(s.String())
		return err == nil && reflect.DeepEqual(parsed, s)
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCPUSetOps(t *testing.T) {
	s := RangeCPUSet(0, 3)
	if s.Len() != 4 || s.String() != "0-3" {
		t.Fatalf("range set = %q", s)
	}
}

func TestNewWayMask(t *testing.T) {
	m, err := NewWayMask(2, 4)
	if err != nil {
		t.Fatal(err)
	}
	if m != 0x3c {
		t.Fatalf("mask = %x", uint64(m))
	}
	if !m.Contiguous() {
		t.Fatal("contiguous mask reported non-contiguous")
	}
}

func TestNewWayMaskErrors(t *testing.T) {
	for _, c := range []struct{ lo, n int }{{-1, 4}, {0, 0}, {60, 10}} {
		if _, err := NewWayMask(c.lo, c.n); err == nil {
			t.Fatalf("accepted lo=%d n=%d", c.lo, c.n)
		}
	}
}

func TestWayMaskContiguity(t *testing.T) {
	if WayMask(0b1010).Contiguous() {
		t.Fatal("holey mask reported contiguous")
	}
	if WayMask(0).Contiguous() {
		t.Fatal("empty mask reported contiguous")
	}
	if !WayMask(0b1).Contiguous() || !WayMask(0xff00).Contiguous() {
		t.Fatal("contiguous masks rejected")
	}
}

func TestWayMaskHexFormat(t *testing.T) {
	m, _ := NewWayMask(0, 20)
	if m.String() != "fffff" {
		t.Fatalf("full 20-way mask = %q, want fffff", m.String())
	}
	parsed, err := ParseWayMask("FFFFF")
	if err != nil || parsed != m {
		t.Fatalf("parse: %v %v", parsed, err)
	}
	if _, err := ParseWayMask("zz"); err == nil {
		t.Fatal("accepted invalid hex")
	}
	if _, err := ParseWayMask(""); err == nil {
		t.Fatal("accepted empty mask")
	}
}

func TestSchemataRoundTrip(t *testing.T) {
	lc, _ := NewWayMask(2, 18)
	line := SchemataLine([]WayMask{lc, lc})
	if line != "L3:0=ffffc;1=ffffc" {
		t.Fatalf("schemata = %q", line)
	}
	masks, err := ParseSchemataLine(line)
	if err != nil || len(masks) != 2 || masks[0] != lc || masks[1] != lc {
		t.Fatalf("parsed %v, %v", masks, err)
	}
}

func TestParseSchemataOutOfOrder(t *testing.T) {
	masks, err := ParseSchemataLine("L3:1=3;0=ff")
	if err != nil {
		t.Fatal(err)
	}
	if masks[0] != 0xff || masks[1] != 0x3 {
		t.Fatalf("masks = %v", masks)
	}
}

func TestParseSchemataErrors(t *testing.T) {
	for _, bad := range []string{"L2:0=f", "L3:0", "L3:x=f", "L3:0=zz"} {
		if _, err := ParseSchemataLine(bad); err == nil {
			t.Fatalf("accepted %q", bad)
		}
	}
}

func TestFreqKHz(t *testing.T) {
	if got := FreqKHz(2.3); got != 2300000 {
		t.Fatalf("FreqKHz(2.3) = %d", got)
	}
	if got := KHzToGHz(1200000); got != 1.2 {
		t.Fatalf("KHzToGHz = %v", got)
	}
}

func TestHTBRateRoundTrip(t *testing.T) {
	s := HTBRate(1.25) // 10 gbit
	if s != "10000mbit" {
		t.Fatalf("rate = %q", s)
	}
	back, err := ParseHTBRate(s)
	if err != nil || math.Abs(back-1.25) > 1e-9 {
		t.Fatalf("round trip = %v, %v", back, err)
	}
	if v, err := ParseHTBRate("8gbit"); err != nil || v != 1.0 {
		t.Fatalf("gbit parse = %v, %v", v, err)
	}
	if v, err := ParseHTBRate("8000kbit"); err != nil || math.Abs(v-0.001) > 1e-9 {
		t.Fatalf("kbit parse = %v, %v", v, err)
	}
	if _, err := ParseHTBRate("10"); err == nil {
		t.Fatal("accepted unitless rate")
	}
}

func TestWayMaskRoundTripProperty(t *testing.T) {
	if err := quick.Check(func(lo, n uint8) bool {
		l, c := int(lo%60), int(n%5)+1
		if l+c > 64 {
			return true
		}
		m, err := NewWayMask(l, c)
		if err != nil {
			return false
		}
		back, err := ParseWayMask(m.String())
		return err == nil && back == m && back.Contiguous()
	}, nil); err != nil {
		t.Fatal(err)
	}
}
