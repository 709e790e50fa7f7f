package serve

import (
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

// shard is one isolated domain of the control plane: its own epoch
// scheduler pool (heap + workers), its own lifecycle SSE hub and its own
// fleet job driver. Instances are pinned to a shard by the registry's
// consistent-hash table at creation, and the registry's index records
// which shard hosts each; migration is the only way an instance's state
// moves between shards (as a new instance restored from a checkpoint).
// Shard pools are wired as peers, so a hot shard's due slices execute on
// an idle sibling's workers.
type shard struct {
	idx   int
	pool  *epochScheduler
	hub   *Hub
	sched *jobDriver    // attached by New
	seq   atomic.Uint64 // lifecycle event ids on the shard hub
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

// ShardStatus is one shard's health snapshot, reported by
// GET /api/v1/shards and the heracles_shard_* metric families.
type ShardStatus struct {
	Shard      int              `json:"shard"`
	Instances  int              `json:"instances"`
	EpochSched EpochSchedStatus `json:"epoch_scheduler"`
	// Sched is the shard's fleet job scheduler accounting.
	Sched *SchedulerStatus `json:"sched,omitempty"`
}

// Registry is the instance pool: it assigns ids, and its one index —
// live instances in creation order, each with the shard hosting it — is
// what every lookup, listing and shard's dispatch set reads. It owns the
// per-shard domains (epoch pool, lifecycle hub, job driver) behind a
// consistent-hash instance→shard table. Snapshot and shutdown work fans
// out over the shared parallel worker primitive so a control plane with
// many instances snapshots and stops them concurrently.
type Registry struct {
	mu      sync.Mutex
	seq     int
	pending int // reserved ids whose instances are still being built
	insts   map[string]*Instance
	order   []string
	homes   map[string]int // id → shard actually hosting it (migrations override the hash)

	shards []*shard
	table  *chash.Table

	migrations atomic.Int64 // completed migrations out of or across this registry
}

// NewRegistry returns an empty registry with one running epoch-scheduler
// pool per shard. drivers is the total epoch worker budget (0 selects
// GOMAXPROCS), divided across shards with a floor of one driver each;
// nshards <= 0 selects a single shard.
func NewRegistry(drivers, nshards int) *Registry {
	if nshards <= 0 {
		nshards = 1
	}
	r := &Registry{
		insts: make(map[string]*Instance),
		homes: make(map[string]int),
	}
	members := make([]string, nshards)
	for i := 0; i < nshards; i++ {
		members[i] = fmt.Sprintf("s%d", i)
	}
	r.table = chash.New(shardSeed, members...)
	for i := 0; i < nshards; i++ {
		r.shards = append(r.shards, &shard{
			idx:  i,
			pool: newEpochScheduler(shardDrivers(drivers, i, nshards)),
			hub:  NewHub(),
		})
	}
	// Wire every pool's peers for work-stealing. The slices are built
	// before any instance exists, so the peer lists are immutable by the
	// time a dispatcher can read them.
	for i, sh := range r.shards {
		for j, other := range r.shards {
			if i != j {
				sh.pool.peers = append(sh.pool.peers, other.pool)
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
			st = sh.pool.status()
		} else {
			st = st.merge(sh.pool.status())
		}
	}
	return st
}

// ShardStatuses snapshots every shard: occupancy, epoch pool and fleet
// job scheduler.
func (r *Registry) ShardStatuses() []ShardStatus {
	counts := make([]int, len(r.shards))
	r.mu.Lock()
	for _, idx := range r.homes {
		counts[idx]++
	}
	r.mu.Unlock()
	out := make([]ShardStatus, len(r.shards))
	for i, sh := range r.shards {
		sched := sh.sched.Status()
		out[i] = ShardStatus{Shard: i, Instances: counts[i], EpochSched: sh.pool.status(), Sched: &sched}
	}
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

// readd reinstates a removed instance on its former shard after a
// failed migration; no reservation is consumed and the cap may
// transiently overshoot by the one returning instance.
func (r *Registry) readd(inst *Instance, idx int) {
	r.put(inst, idx, false, "migrate-return", "")
}

func (r *Registry) put(inst *Instance, idx int, reserved bool, event, detail string) {
	inst.setShard(idx)
	r.mu.Lock()
	if reserved {
		r.pending--
	}
	r.insts[inst.ID()] = inst
	r.order = append(r.order, inst.ID())
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

// List returns the live instances in creation order.
func (r *Registry) List() []*Instance { return r.list(-1) }

// list snapshots the live instances in creation order: all of them, or
// with idx >= 0 only those shard idx hosts — the set its job driver
// dispatches over.
func (r *Registry) list(idx int) []*Instance {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*Instance, 0, len(r.order))
	for _, id := range r.order {
		if idx < 0 || r.homes[id] == idx {
			out = append(out, r.insts[id])
		}
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
// shuts the per-shard epoch-scheduler pools down. The pools stop last:
// Stop needs live workers to finish any in-flight slices it must wait
// out — and they stop together, because a stopping shard's entries may
// be executing on a peer's workers.
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
	for _, sh := range r.shards {
		sh.pool.stop()
	}
	for _, sh := range r.shards {
		sh.hub.Close()
	}
}
