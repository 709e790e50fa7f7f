package isolation

import (
	"fmt"
	"math/bits"
	"strconv"
	"strings"
)

// WayMask is a CAT cache-way bitmask. Intel CAT requires masks to be
// contiguous runs of set bits; resctrl rejects anything else.
type WayMask uint64

// NewWayMask returns a mask of n contiguous ways starting at way lo.
func NewWayMask(lo, n int) (WayMask, error) {
	if lo < 0 || n <= 0 || lo+n > 64 {
		return 0, fmt.Errorf("isolation: invalid way range [%d, %d)", lo, lo+n)
	}
	var m uint64
	if n == 64 {
		m = ^uint64(0)
	} else {
		m = (uint64(1)<<uint(n) - 1) << uint(lo)
	}
	return WayMask(m), nil
}

// Contiguous reports whether the set bits form one contiguous run, the
// validity requirement of Intel CAT.
func (m WayMask) Contiguous() bool {
	if m == 0 {
		return false
	}
	v := uint64(m) >> uint(bits.TrailingZeros64(uint64(m)))
	return v&(v+1) == 0
}

// String formats the mask as lowercase hex without leading zeros, the
// format resctrl schemata files use (e.g. "fffff", "3", "ff000").
func (m WayMask) String() string {
	return strconv.FormatUint(uint64(m), 16)
}

// ParseWayMask parses a resctrl-style hex mask.
func ParseWayMask(s string) (WayMask, error) {
	s = strings.TrimSpace(strings.TrimPrefix(strings.ToLower(s), "0x"))
	if s == "" {
		return 0, fmt.Errorf("isolation: empty way mask")
	}
	v, err := strconv.ParseUint(s, 16, 64)
	if err != nil {
		return 0, fmt.Errorf("isolation: bad way mask %q: %v", s, err)
	}
	return WayMask(v), nil
}

// SchemataLine formats an L3 CAT schemata line for resctrl, one mask per
// cache domain (socket): "L3:0=ff000;1=ff000".
func SchemataLine(perSocket []WayMask) string {
	var b strings.Builder
	b.WriteString("L3:")
	for i, m := range perSocket {
		if i > 0 {
			b.WriteByte(';')
		}
		fmt.Fprintf(&b, "%d=%s", i, m)
	}
	return b.String()
}

// ParseSchemataLine parses an "L3:0=mask;1=mask" line into per-socket
// masks. Sockets may appear in any order; the result is indexed by socket
// id.
func ParseSchemataLine(line string) ([]WayMask, error) {
	line = strings.TrimSpace(line)
	rest, ok := strings.CutPrefix(line, "L3:")
	if !ok {
		return nil, fmt.Errorf("isolation: schemata line %q does not start with L3:", line)
	}
	parts := strings.Split(rest, ";")
	byID := make(map[int]WayMask, len(parts))
	maxID := -1
	for _, p := range parts {
		idStr, maskStr, ok := strings.Cut(strings.TrimSpace(p), "=")
		if !ok {
			return nil, fmt.Errorf("isolation: bad schemata entry %q", p)
		}
		id, err := strconv.Atoi(strings.TrimSpace(idStr))
		if err != nil || id < 0 {
			return nil, fmt.Errorf("isolation: bad cache domain id %q", idStr)
		}
		m, err := ParseWayMask(maskStr)
		if err != nil {
			return nil, err
		}
		byID[id] = m
		if id > maxID {
			maxID = id
		}
	}
	out := make([]WayMask, maxID+1)
	for id, m := range byID {
		out[id] = m
	}
	return out, nil
}

// FreqKHz converts a GHz frequency to the integer kHz representation used
// by sysfs cpufreq scaling_max_freq files.
func FreqKHz(ghz float64) int { return int(ghz*1e6 + 0.5) }

// KHzToGHz converts a cpufreq kHz value back to GHz.
func KHzToGHz(khz int) float64 { return float64(khz) / 1e6 }

// HTBRate formats a bandwidth in GB/s as the bit-rate string tc accepts
// (e.g. "8000mbit").
func HTBRate(gbs float64) string {
	mbit := gbs * 8 * 1000
	return fmt.Sprintf("%.0fmbit", mbit)
}

// ParseHTBRate parses a tc rate string in mbit/gbit back to GB/s.
func ParseHTBRate(s string) (float64, error) {
	s = strings.TrimSpace(strings.ToLower(s))
	switch {
	case strings.HasSuffix(s, "gbit"):
		v, err := strconv.ParseFloat(strings.TrimSuffix(s, "gbit"), 64)
		if err != nil {
			return 0, fmt.Errorf("isolation: bad rate %q: %v", s, err)
		}
		return v / 8, nil
	case strings.HasSuffix(s, "mbit"):
		v, err := strconv.ParseFloat(strings.TrimSuffix(s, "mbit"), 64)
		if err != nil {
			return 0, fmt.Errorf("isolation: bad rate %q: %v", s, err)
		}
		return v / 8000, nil
	case strings.HasSuffix(s, "kbit"):
		v, err := strconv.ParseFloat(strings.TrimSuffix(s, "kbit"), 64)
		if err != nil {
			return 0, fmt.Errorf("isolation: bad rate %q: %v", s, err)
		}
		return v / 8e6, nil
	default:
		return 0, fmt.Errorf("isolation: rate %q missing unit", s)
	}
}
