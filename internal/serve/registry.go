package serve

import (
	"encoding/json"
	"fmt"
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

// shard is one isolated domain of the control plane: its own epoch
// scheduler (heap + worker pool), its own lifecycle SSE hub and its own
// slice of the instance map. Instances are pinned to a shard by the
// registry's consistent-hash table at creation; migration is the only
// way an instance's state moves between shards (as a new instance
// restored from a checkpoint). Shard pools are wired as peers, so a hot
// shard's due slices execute on an idle sibling's workers.
type shard struct {
	idx   int
	sched *epochScheduler
	hub   *Hub

	mu    sync.Mutex
	insts map[string]*Instance
	order []string
	seq   uint64 // lifecycle event ids on the shard hub
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
	sh.mu.Lock()
	sh.seq++
	id := sh.seq
	sh.mu.Unlock()
	sh.hub.Publish(Message{Event: event, ID: id, Data: data})
}

// add installs a built instance into the shard's map.
func (sh *shard) add(inst *Instance) {
	sh.mu.Lock()
	sh.insts[inst.ID()] = inst
	sh.order = append(sh.order, inst.ID())
	sh.mu.Unlock()
}

// drop removes an instance from the shard's map.
func (sh *shard) drop(id string) {
	sh.mu.Lock()
	delete(sh.insts, id)
	for j, oid := range sh.order {
		if oid == id {
			sh.order = append(sh.order[:j], sh.order[j+1:]...)
			break
		}
	}
	sh.mu.Unlock()
}

// list snapshots the shard's instances in shard-arrival order — the
// per-shard fleet dispatcher ticks over exactly this set.
func (sh *shard) list() []*Instance {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	out := make([]*Instance, 0, len(sh.order))
	for _, id := range sh.order {
		out = append(out, sh.insts[id])
	}
	return out
}

func (sh *shard) size() int {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return len(sh.insts)
}

// ShardStatus is one shard's health snapshot, reported by
// GET /api/v1/shards and the heracles_shard_* metric families.
type ShardStatus struct {
	Shard      int              `json:"shard"`
	Instances  int              `json:"instances"`
	EpochSched EpochSchedStatus `json:"epoch_scheduler"`
	// Sched is the shard's fleet job scheduler accounting; nil when the
	// snapshot comes from a bare registry (the server fills it in).
	Sched *SchedulerStatus `json:"sched,omitempty"`
}

// Registry is the instance pool: it assigns ids, tracks live instances
// in creation order, and owns the per-shard domains — epoch scheduler,
// lifecycle hub, instance map — behind a consistent-hash instance→shard
// table. Snapshot and shutdown work fans out over the shared parallel
// worker primitive so a control plane with many instances snapshots and
// stops them concurrently.
type Registry struct {
	mu      sync.Mutex
	seq     int
	pending int // reserved ids whose instances are still being built
	insts   map[string]*Instance
	order   []string
	homes   map[string]int // id → shard actually hosting it (migrations override the hash)
	workers int

	shards []*shard
	table  *chash.Table

	migrations atomic.Int64 // completed migrations out of or across this registry
}

// NewRegistry returns an empty registry with one running epoch-scheduler
// pool per shard. workers bounds snapshot and shutdown fan-out (0
// selects parallel.DefaultWorkers); drivers is the total epoch worker
// budget (0 selects GOMAXPROCS), divided across shards with a floor of
// one driver each; nshards <= 0 selects a single shard.
func NewRegistry(workers, drivers, nshards int) *Registry {
	if nshards <= 0 {
		nshards = 1
	}
	r := &Registry{
		insts:   make(map[string]*Instance),
		homes:   make(map[string]int),
		workers: workers,
	}
	members := make([]string, nshards)
	for i := 0; i < nshards; i++ {
		members[i] = fmt.Sprintf("s%d", i)
	}
	r.table = chash.New(shardSeed, members...)
	for i := 0; i < nshards; i++ {
		r.shards = append(r.shards, &shard{
			idx:   i,
			sched: newEpochScheduler(shardDrivers(drivers, i, nshards)),
			hub:   NewHub(),
			insts: make(map[string]*Instance),
		})
	}
	// Wire every pool's peers for work-stealing. The slices are built
	// before any instance exists, so the peer lists are immutable by the
	// time a dispatcher can read them.
	for i, sh := range r.shards {
		for j, other := range r.shards {
			if i != j {
				sh.sched.peers = append(sh.sched.peers, other.sched)
			}
		}
	}
	return r
}

// shardDrivers splits the total driver budget across shards: every
// shard gets at least one worker, and the remainder lands on the lowest
// shard indices.
func shardDrivers(total, idx, nshards int) int {
	if total <= 0 {
		total = 0 // newEpochScheduler resolves 0 to GOMAXPROCS per shard
	}
	if total == 0 {
		if nshards == 1 {
			return 0
		}
		// A multi-shard registry must not multiply the default budget by
		// the shard count: split GOMAXPROCS like an explicit total.
		total = defaultDrivers()
	}
	per := total / nshards
	if idx < total%nshards {
		per++
	}
	if per < 1 {
		per = 1
	}
	return per
}

// ShardCount returns the number of shards.
func (r *Registry) ShardCount() int { return len(r.shards) }

// HomeShard returns the shard currently hosting id.
func (r *Registry) HomeShard(id string) (int, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	idx, ok := r.homes[id]
	return idx, ok
}

// PlaceShard returns the consistent-hash home for an id — where a fresh
// instance with that id lands. Migrated instances may live elsewhere;
// HomeShard reports actual placement.
func (r *Registry) PlaceShard(id string) int { return r.table.PlaceIndex(id) }

// SchedStatus aggregates the per-shard epoch schedulers: counters sum,
// lag reports the worst shard.
func (r *Registry) SchedStatus() EpochSchedStatus {
	var st EpochSchedStatus
	for i, sh := range r.shards {
		if i == 0 {
			st = sh.sched.status()
		} else {
			st = st.merge(sh.sched.status())
		}
	}
	return st
}

// ShardStatuses snapshots every shard.
func (r *Registry) ShardStatuses() []ShardStatus {
	out := make([]ShardStatus, len(r.shards))
	for i, sh := range r.shards {
		out[i] = ShardStatus{Shard: i, Instances: sh.size(), EpochSched: sh.sched.status()}
	}
	return out
}

// Migrations returns the number of completed migrations.
func (r *Registry) Migrations() int64 { return r.migrations.Load() }

// noteMigration counts a completed migration.
func (r *Registry) noteMigration() { r.migrations.Add(1) }

// shardAt resolves a shard index.
func (r *Registry) shardAt(idx int) (*shard, bool) {
	if idx < 0 || idx >= len(r.shards) {
		return nil, false
	}
	return r.shards[idx], true
}

// ShardHub returns the shard's lifecycle SSE hub.
func (r *Registry) ShardHub(idx int) (*Hub, bool) {
	sh, ok := r.shardAt(idx)
	if !ok {
		return nil, false
	}
	return sh.hub, true
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

// readd reinstates a removed instance on its former shard after a
// failed peer migration; no reservation is consumed and the cap may
// transiently overshoot by the one returning instance.
func (r *Registry) readd(inst *Instance, idx int) {
	r.put(inst, idx, false, "migrate-return", "")
}

func (r *Registry) put(inst *Instance, idx int, reserved bool, event, detail string) {
	sh := r.shards[idx]
	inst.setShard(idx)
	r.mu.Lock()
	if reserved {
		r.pending--
	}
	r.insts[inst.ID()] = inst
	r.order = append(r.order, inst.ID())
	r.homes[inst.ID()] = idx
	r.mu.Unlock()
	sh.add(inst)
	sh.publish(event, inst.ID(), detail)
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
// peer migration falls through). Returns false if the id is unknown.
func (r *Registry) Remove(id string) (*Instance, int, bool) {
	r.mu.Lock()
	inst, ok := r.insts[id]
	if !ok {
		r.mu.Unlock()
		return nil, 0, false
	}
	idx := r.homes[id]
	delete(r.insts, id)
	delete(r.homes, id)
	for j, oid := range r.order {
		if oid == id {
			r.order = append(r.order[:j], r.order[j+1:]...)
			break
		}
	}
	r.mu.Unlock()
	r.shards[idx].drop(id)
	return inst, idx, true
}

// Len returns the number of live instances.
func (r *Registry) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.insts)
}

// listLocked snapshots the live instances in creation order; the caller
// holds r.mu.
func (r *Registry) listLocked() []*Instance {
	out := make([]*Instance, 0, len(r.order))
	for _, id := range r.order {
		out = append(out, r.insts[id])
	}
	return out
}

// List returns the live instances in creation order.
func (r *Registry) List() []*Instance {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.listLocked()
}

// Statuses snapshots every instance concurrently, in creation order.
func (r *Registry) Statuses() []Status {
	insts := r.List()
	out := make([]Status, len(insts))
	parallel.ForEach(r.workers, len(insts), func(i int) {
		out[i] = insts[i].Status()
	})
	return out
}

// Close stops every instance concurrently, empties the registry and
// shuts the per-shard epoch-scheduler pools down. The pools stop last:
// Stop needs live workers to finish any in-flight slices it must wait
// out — and they stop together, because a stopping shard's entries may
// be executing on a peer's workers.
func (r *Registry) Close() {
	r.mu.Lock()
	insts := r.listLocked()
	r.insts = make(map[string]*Instance)
	r.homes = make(map[string]int)
	r.order = nil
	r.mu.Unlock()
	for _, sh := range r.shards {
		sh.mu.Lock()
		sh.insts = make(map[string]*Instance)
		sh.order = nil
		sh.mu.Unlock()
	}
	parallel.ForEach(r.workers, len(insts), func(i int) {
		insts[i].Stop()
	})
	for _, sh := range r.shards {
		sh.sched.stop()
	}
	for _, sh := range r.shards {
		sh.hub.Close()
	}
}
