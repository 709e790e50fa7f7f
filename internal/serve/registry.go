package serve

import (
	"cmp"
	"encoding/json"
	"fmt"
	"maps"
	"slices"
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

// shard is a placement: the registry's consistent-hash table pins each
// instance to one at creation, and the registry's index records which
// shard hosts each (migration can make it differ from the hash). A shard
// is a migration target and carries its own lifecycle SSE hub; the epoch
// scheduler and the job driver are the registry's and the server's, one
// each, whatever the shard count.
type shard struct {
	idx int
	hub *Hub
	seq atomic.Uint64 // lifecycle event ids on the shard hub
}

// ShardEvent is one shard-lifecycle message published on the shard's
// SSE hub (GET /api/v1/shards/{shard}/stream): instance arrivals,
// departures and migrations in and out of the shard.
type ShardEvent struct {
	Shard    int    `json:"shard"`
	Instance string `json:"instance"`
	Event    string `json:"event"` // created | deleted | migrate-in | migrate-out
	Detail   string `json:"detail,omitempty"`
}

// publish emits a shard-lifecycle event to the shard hub's subscribers.
func (sh *shard) publish(event, instID, detail string) {
	if !sh.hub.HasSubscribers() {
		return
	}
	data, err := json.Marshal(ShardEvent{Shard: sh.idx, Instance: instID, Event: event, Detail: detail})
	if err != nil {
		return
	}
	sh.hub.Publish(Message{Event: event, ID: sh.seq.Add(1), Data: data})
}

// ShardStatus is one shard's occupancy, reported by GET /api/v1/shards
// and the heracles_shard_instances metric family.
type ShardStatus struct {
	Shard     int `json:"shard"`
	Instances int `json:"instances"`
}

// Registry is the instance pool: it assigns ids, and its one index —
// live instances in creation order, each with the shard hosting it — is
// what every lookup and listing reads. It owns the one epoch scheduler
// that drives every instance, and the shards behind a consistent-hash
// instance→shard table. Snapshot and shutdown work fans out over the
// shared parallel worker primitive so a control plane with many
// instances snapshots and stops them concurrently.
type Registry struct {
	mu      sync.Mutex
	seq     int
	pending int // reserved ids whose instances are still being built
	insts   map[string]*Instance
	order   []string       // ascending Instance.placed
	placed  uint64         // the last Instance.placed handed out
	homes   map[string]int // id → shard actually hosting it (migrations override the hash)

	pool   *epochScheduler
	shards []*shard
	table  *chash.Table

	migrations atomic.Int64 // completed migrations out of or across this registry
}

// NewRegistry returns an empty registry with its epoch scheduler
// running. drivers is the scheduler's worker count (0 selects
// GOMAXPROCS); nshards <= 0 selects a single shard.
func NewRegistry(drivers, nshards int) *Registry {
	if nshards <= 0 {
		nshards = 1
	}
	r := &Registry{
		insts: make(map[string]*Instance),
		homes: make(map[string]int),
		pool:  newEpochScheduler(drivers),
	}
	members := make([]string, nshards)
	for i := 0; i < nshards; i++ {
		members[i] = fmt.Sprintf("s%d", i)
		r.shards = append(r.shards, &shard{idx: i, hub: NewHub()})
	}
	r.table = chash.New(shardSeed, members...)
	return r
}

// ShardCount returns the number of shards.
func (r *Registry) ShardCount() int { return len(r.shards) }

// ShardStatuses snapshots every shard's occupancy.
func (r *Registry) ShardStatuses() []ShardStatus {
	out := make([]ShardStatus, len(r.shards))
	for i := range out {
		out[i].Shard = i
	}
	r.mu.Lock()
	for _, idx := range r.homes {
		out[idx].Instances++
	}
	r.mu.Unlock()
	return out
}

// Migrations returns the number of completed migrations.
func (r *Registry) Migrations() int64 { return r.migrations.Load() }

// shardAt resolves a shard index.
func (r *Registry) shardAt(idx int) (*shard, bool) {
	if idx < 0 || idx >= len(r.shards) {
		return nil, false
	}
	return r.shards[idx], true
}

// Reserve claims the next instance id ("i1", "i2", ...) against the pool
// cap (maxN <= 0 means uncapped). Counting live plus in-flight
// reservations under one lock makes the cap exact even for concurrent
// creates, while keeping instance construction — which may calibrate
// workloads — outside the registry lock. A reservation ends with Put or
// Unreserve.
func (r *Registry) Reserve(maxN int) (string, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if maxN > 0 && len(r.insts)+r.pending >= maxN {
		return "", false
	}
	r.pending++
	r.seq++
	return fmt.Sprintf("i%d", r.seq), true
}

// Unreserve releases a reservation whose instance failed to build.
func (r *Registry) Unreserve() {
	r.mu.Lock()
	r.pending--
	r.mu.Unlock()
}

// Put inserts a built instance on its consistent-hash home shard,
// consuming its reservation.
func (r *Registry) Put(inst *Instance) {
	r.put(inst, r.table.PlaceIndex(inst.ID()), true, "created", "")
}

// PutShard inserts a built instance on an explicit shard — the
// migrate-in path — consuming its reservation.
func (r *Registry) PutShard(inst *Instance, idx int, detail string) {
	r.put(inst, idx, true, "migrate-in", detail)
}

// readd reinstates a removed instance on its former shard, at its place
// in creation order, after a failed migration; no reservation is consumed
// and the cap may transiently overshoot by the one returning instance.
func (r *Registry) readd(inst *Instance, idx int) {
	r.put(inst, idx, false, "migrate-return", "")
}

func (r *Registry) put(inst *Instance, idx int, reserved bool, event, detail string) {
	inst.setShard(idx)
	r.mu.Lock()
	if reserved {
		r.pending--
		r.placed++
		inst.placed = r.placed
		r.order = append(r.order, inst.ID())
	} else {
		at, _ := slices.BinarySearchFunc(r.order, inst.placed, func(id string, placed uint64) int {
			return cmp.Compare(r.insts[id].placed, placed)
		})
		r.order = slices.Insert(r.order, at, inst.ID())
	}
	r.insts[inst.ID()] = inst
	r.homes[inst.ID()] = idx
	r.mu.Unlock()
	r.shards[idx].publish(event, inst.ID(), detail)
}

// Get returns the instance with the given id.
func (r *Registry) Get(id string) (*Instance, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	inst, ok := r.insts[id]
	return inst, ok
}

// Remove detaches the instance from the registry and returns it with
// the shard that hosted it; the caller stops it (or re-adds it if a
// migration falls through). Returns false if the id is unknown.
func (r *Registry) Remove(id string) (*Instance, int, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	inst, ok := r.insts[id]
	if !ok {
		return nil, 0, false
	}
	idx := r.homes[id]
	delete(r.insts, id)
	delete(r.homes, id)
	j := slices.Index(r.order, id)
	r.order = slices.Delete(r.order, j, j+1)
	return inst, idx, true
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
	out := make([]*Instance, len(r.order))
	for i, id := range r.order {
		out[i] = r.insts[id]
	}
	return out
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
	insts := slices.Collect(maps.Values(r.insts))
	clear(r.insts)
	clear(r.homes)
	r.order = nil
	r.mu.Unlock()
	parallel.ForEach(0, len(insts), func(i int) {
		insts[i].Stop()
	})
	r.pool.stop()
	for _, sh := range r.shards {
		sh.hub.Close()
	}
}
