package serve

import (
	"cmp"
	"fmt"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"

	"heracles/internal/chash"
	"heracles/internal/parallel"
)

// shardSeed seeds the registry's consistent-hash placement table. It is
// fixed so placement is a pure function of (instance id, shard count):
// two daemons configured alike place the same ids on the same shards,
// which is what makes placement reproducible across restarts and tests.
const shardSeed = 0x48657261636c6573 // "Heracles"

// ShardStatus is one shard's occupancy, reported by GET /api/v1/shards
// and the heracles_shard_instances metric family.
type ShardStatus struct {
	Shard     int `json:"shard"`
	Instances int `json:"instances"`
}

// Registry is the instance pool: it assigns ids, and its one index —
// live instances by id and in creation order — is what every lookup and
// listing reads. A shard is a label each instance carries from
// construction (Instance.shard): the registry keeps only the
// consistent-hash id→shard table that picks a new instance's home. It
// owns the one epoch scheduler that drives every instance. Snapshot and
// shutdown work fans out over the shared parallel worker primitive so a
// control plane with many instances snapshots and stops them
// concurrently.
type Registry struct {
	mu       sync.Mutex
	seq      int
	reserved map[string]bool // ids whose instances are still being built, and names migrating out
	insts    map[string]*Instance
	order    []*Instance // ascending Instance.placed
	placed   uint64      // the last Instance.placed handed out

	pool  *epochScheduler
	table *chash.Table // one member per shard

	migrations atomic.Int64 // completed migrations out of or across this registry
}

// NewRegistry returns an empty registry with its epoch scheduler
// running. drivers is the scheduler's worker count (0 selects
// GOMAXPROCS); nshards <= 0 selects a single shard.
func NewRegistry(drivers, nshards int) *Registry {
	if nshards <= 0 {
		nshards = 1
	}
	members := make([]string, nshards)
	for i := range members {
		members[i] = fmt.Sprintf("s%d", i)
	}
	return &Registry{
		reserved: make(map[string]bool),
		insts:    make(map[string]*Instance),
		pool:     newEpochScheduler(drivers),
		table:    chash.New(shardSeed, members...),
	}
}

// ShardCount returns the number of shards.
func (r *Registry) ShardCount() int { return r.table.Len() }

// ShardStatuses snapshots every shard's occupancy.
func (r *Registry) ShardStatuses() []ShardStatus {
	out := make([]ShardStatus, r.table.Len())
	for i := range out {
		out[i].Shard = i
	}
	r.mu.Lock()
	for _, inst := range r.order {
		out[inst.shard].Instances++
	}
	r.mu.Unlock()
	return out
}

// Migrations returns the number of completed migrations.
func (r *Registry) Migrations() int64 { return r.migrations.Load() }

// Reserve claims an instance id against the pool cap (maxN <= 0 means
// uncapped): name, or with name empty the next minted id ("i1", "i2",
// ...). A name that is live or already reserved is errNameTaken. A name
// of the minted form (a resumed i<n>) moves the mint counter past n.
// Deciding both under one lock makes the cap exact and a name unique
// even for concurrent creates, while keeping instance construction —
// which may calibrate workloads — outside the registry lock. A
// reservation ends with Put or Unreserve.
func (r *Registry) Reserve(maxN int, name string) (string, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.insts[name] != nil || r.reserved[name] {
		return "", fmt.Errorf("%w: %q", errNameTaken, name)
	}
	if maxN > 0 && len(r.insts)+len(r.reserved) >= maxN {
		return "", errTooMany
	}
	if name == "" {
		r.seq++
		name = fmt.Sprintf("i%d", r.seq)
	} else if n, err := strconv.Atoi(name[1:]); err == nil && minted(name) {
		r.seq = max(r.seq, n)
	}
	r.reserved[name] = true
	return name, nil
}

// Unreserve releases id's reservation: its instance failed to build, or
// the name migrated away.
func (r *Registry) Unreserve(id string) {
	r.mu.Lock()
	delete(r.reserved, id)
	r.mu.Unlock()
}

// Put inserts a built instance at the end of creation order, consuming
// its reservation.
func (r *Registry) Put(inst *Instance) {
	r.mu.Lock()
	delete(r.reserved, inst.ID())
	r.placed++
	inst.placed = r.placed
	r.order = append(r.order, inst)
	r.insts[inst.ID()] = inst
	r.mu.Unlock()
}

// readd reinstates a removed instance at its place in creation order,
// after a failed migration, ending the hold on its name if it had one;
// the cap may transiently overshoot by the one returning instance.
func (r *Registry) readd(inst *Instance) {
	r.mu.Lock()
	delete(r.reserved, inst.ID())
	r.order = slices.Insert(r.order, r.slot(inst.placed), inst)
	r.insts[inst.ID()] = inst
	r.mu.Unlock()
}

// slot binary-searches order for placed; r.mu is held.
func (r *Registry) slot(placed uint64) int {
	at, _ := slices.BinarySearchFunc(r.order, placed, func(inst *Instance, placed uint64) int {
		return cmp.Compare(inst.placed, placed)
	})
	return at
}

// Get returns the instance with the given id.
func (r *Registry) Get(id string) (*Instance, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	inst, ok := r.insts[id]
	return inst, ok
}

// Remove detaches the instance from the registry and returns it with
// its shard; the caller stops it (or re-adds it if a migration falls
// through). Returns false if the id is unknown.
func (r *Registry) Remove(id string) (*Instance, int, bool) { return r.remove(id, false) }

// remove is Remove; with hold, id stays reserved while the instance is
// away, so no create can claim the name before Put, readd or Unreserve
// settles where it lives.
func (r *Registry) remove(id string, hold bool) (*Instance, int, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	inst, ok := r.insts[id]
	if !ok {
		return nil, 0, false
	}
	delete(r.insts, id)
	j := r.slot(inst.placed)
	r.order = slices.Delete(r.order, j, j+1)
	if hold {
		r.reserved[id] = true
	}
	return inst, inst.shard, true
}

// Len returns the number of live instances.
func (r *Registry) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.insts)
}

// List snapshots the live instances in creation order.
func (r *Registry) List() []*Instance {
	r.mu.Lock()
	defer r.mu.Unlock()
	return slices.Clone(r.order)
}

// Statuses snapshots every instance concurrently, in creation order.
func (r *Registry) Statuses() []Status {
	insts := r.List()
	out := make([]Status, len(insts))
	parallel.ForEach(0, len(insts), func(i int) {
		out[i] = insts[i].Status()
	})
	return out
}

// Close stops every instance concurrently, empties the registry and
// shuts the epoch scheduler down. The scheduler stops last: Stop needs
// live workers to finish any in-flight slices it must wait out.
func (r *Registry) Close() {
	r.mu.Lock()
	insts := r.order
	clear(r.insts)
	r.order = nil
	r.mu.Unlock()
	parallel.ForEach(0, len(insts), func(i int) {
		insts[i].Stop()
	})
	r.pool.stop()
}
