// Package chash implements seeded rendezvous (highest-random-weight)
// hashing: the placement function behind the sharded registry's
// instance→shard map and the federation router's instance→member map.
//
// Rendezvous hashing scores every (key, member) pair with a mixed hash
// and places the key on the highest-scoring member. Placement is
// deterministic for a fixed seed and membership, and minimal under
// membership change: removing a member moves exactly the keys it owned,
// and adding one moves only the keys the newcomer now wins — in
// expectation N/M of N keys over M members, never a full reshuffle.
package chash

import "fmt"

// Table is an immutable-membership rendezvous hash table. The zero
// value is unusable; build one with New. Methods are safe for
// concurrent use because the table never mutates — membership changes
// produce a new table via Add/Remove.
type Table struct {
	seed    uint64
	members []string
	hashes  []uint64 // precomputed member-name hashes, parallel to members
}

// New builds a table over the given members. Member order does not
// affect placement (scores are order-free); duplicate members are
// collapsed. Panics on an empty member list: a placement table with
// nowhere to place is programmer error.
func New(seed uint64, members ...string) *Table {
	if len(members) == 0 {
		panic("chash: empty member list")
	}
	t := &Table{seed: seed}
	seen := make(map[string]bool, len(members))
	for _, m := range members {
		if seen[m] {
			continue
		}
		seen[m] = true
		t.members = append(t.members, m)
		t.hashes = append(t.hashes, strhash(m))
	}
	return t
}

// Len returns the member count.
func (t *Table) Len() int { return len(t.members) }

// Place returns the member that owns key: the highest-scoring member,
// with the earliest member winning score ties so placement is total.
func (t *Table) Place(key string) string {
	return t.members[t.PlaceIndex(key)]
}

// PlaceIndex is Place returning the member's index instead of its name.
func (t *Table) PlaceIndex(key string) int {
	kh := strhash(key) ^ t.seed
	best, bestScore := 0, uint64(0)
	for i, mh := range t.hashes {
		if s := mix(kh ^ mh); i == 0 || s > bestScore {
			best, bestScore = i, s
		}
	}
	return best
}

// Add returns a new table with member appended (or the receiver if it
// is already present).
func (t *Table) Add(member string) *Table {
	for _, m := range t.members {
		if m == member {
			return t
		}
	}
	return New(t.seed, append(append([]string{}, t.members...), member)...)
}

// Remove returns a new table without member. Panics if the removal
// would empty the table; returns the receiver if member is unknown.
func (t *Table) Remove(member string) *Table {
	kept := make([]string, 0, len(t.members))
	for _, m := range t.members {
		if m != member {
			kept = append(kept, m)
		}
	}
	if len(kept) == len(t.members) {
		return t
	}
	if len(kept) == 0 {
		panic(fmt.Sprintf("chash: removing %q empties the table", member))
	}
	return New(t.seed, kept...)
}

// strhash is FNV-1a over the string bytes.
func strhash(s string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	return h
}

// mix is the splitmix64 finalizer: it spreads the xor-combined key and
// member hashes so per-pair scores behave as independent uniforms,
// which is what makes rendezvous placement balanced.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
