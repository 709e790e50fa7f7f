package isolation

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// CPUSet is a set of logical CPU ids.
type CPUSet map[int]struct{}

// NewCPUSet returns a set holding the given CPUs.
func NewCPUSet(cpus ...int) CPUSet {
	s := make(CPUSet, len(cpus))
	for _, c := range cpus {
		s[c] = struct{}{}
	}
	return s
}

// Add inserts a CPU into the set.
func (s CPUSet) Add(cpu int) { s[cpu] = struct{}{} }

// Len returns the set size.
func (s CPUSet) Len() int { return len(s) }

// Sorted returns the CPU ids in ascending order.
func (s CPUSet) Sorted() []int {
	out := make([]int, 0, len(s))
	for c := range s {
		out = append(out, c)
	}
	sort.Ints(out)
	return out
}

// String formats the set as a kernel cpulist ("0-3,8,10-11"), the format
// cgroup v1 cpuset.cpus and v2 cpuset.cpus files use. An empty set formats
// as the empty string.
func (s CPUSet) String() string {
	ids := s.Sorted()
	if len(ids) == 0 {
		return ""
	}
	var b strings.Builder
	i := 0
	for i < len(ids) {
		j := i
		for j+1 < len(ids) && ids[j+1] == ids[j]+1 {
			j++
		}
		if b.Len() > 0 {
			b.WriteByte(',')
		}
		if i == j {
			fmt.Fprintf(&b, "%d", ids[i])
		} else {
			fmt.Fprintf(&b, "%d-%d", ids[i], ids[j])
		}
		i = j + 1
	}
	return b.String()
}

// ParseCPUSet parses a kernel cpulist. The empty string parses to an empty
// set.
func ParseCPUSet(list string) (CPUSet, error) {
	s := NewCPUSet()
	list = strings.TrimSpace(list)
	if list == "" {
		return s, nil
	}
	for _, part := range strings.Split(list, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			return nil, fmt.Errorf("isolation: empty range in cpulist %q", list)
		}
		if lo, hi, ok := strings.Cut(part, "-"); ok {
			a, err := strconv.Atoi(lo)
			if err != nil {
				return nil, fmt.Errorf("isolation: bad cpulist range start %q: %v", lo, err)
			}
			b, err := strconv.Atoi(hi)
			if err != nil {
				return nil, fmt.Errorf("isolation: bad cpulist range end %q: %v", hi, err)
			}
			if a < 0 || b < a {
				return nil, fmt.Errorf("isolation: invalid cpulist range %q", part)
			}
			for c := a; c <= b; c++ {
				s.Add(c)
			}
			continue
		}
		c, err := strconv.Atoi(part)
		if err != nil || c < 0 {
			return nil, fmt.Errorf("isolation: bad cpu id %q", part)
		}
		s.Add(c)
	}
	return s, nil
}

// RangeCPUSet returns the set {lo..hi} inclusive.
func RangeCPUSet(lo, hi int) CPUSet {
	s := NewCPUSet()
	for c := lo; c <= hi; c++ {
		s.Add(c)
	}
	return s
}
