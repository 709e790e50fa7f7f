package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"
)

// Migration (DESIGN.md §14): checkpoint/restore is the migration
// primitive. POST /api/v1/instances/{id}/migrate detaches the instance
// from the registry, evicts its fleet jobs back onto the origin
// scheduler, snapshots it between epochs, and restores the snapshot
// into a fresh instance — on another shard of this server, or on a peer
// daemon over its create API. The engine is deterministic and
// wall-clock-free, so the restored instance's telemetry is bit-identical
// to a run that never moved; epochs the origin stepped after the
// snapshot are simply re-run, identically, by the restored copy.

// MigrateRequest is the JSON body of POST /api/v1/instances/{id}/migrate:
// exactly one of Shard (in-process cross-shard migration) or Peer (the
// base URL of another heraclesd, cross-process migration) must be set.
type MigrateRequest struct {
	Shard *int   `json:"shard,omitempty"`
	Peer  string `json:"peer,omitempty"`
}

// MigrateResult reports a completed migration. To is the restored
// instance's id — freshly assigned by the target shard or peer; the
// origin id is gone.
type MigrateResult struct {
	From      string `json:"from"`
	FromShard int    `json:"from_shard"`
	To        string `json:"to"`
	ToShard   int    `json:"to_shard"`
	Peer      string `json:"peer,omitempty"`
	// Epoch is the snapshot epoch the restored instance continues from.
	Epoch uint64 `json:"epoch"`
}

// errMigrateGone: the instance left the registry between resolution and
// detach (a concurrent delete or migration won).
var errMigrateGone = errors.New("serve: instance already removed")

// peerError marks a migration failure caused by the peer daemon rather
// than this server; the handler maps it to 502 and the origin instance
// has already been reinstated, untouched.
type peerError struct{ err error }

func (e *peerError) Error() string { return e.err.Error() }
func (e *peerError) Unwrap() error { return e.err }

// migrateClient ships checkpoints to peer daemons. Restore bodies can
// reach tens of MiB, so the timeout is generous.
var migrateClient = &http.Client{Timeout: 120 * time.Second}

// detach removes the instance from the registry and evicts its fleet
// jobs back onto the origin shard's scheduler (checkpoints prune
// fleet-owned tasks, so keeping the jobs running would double-run them).
// Returns the origin shard.
func (s *Server) detach(id string) (*Instance, int, error) {
	inst, from, ok := s.reg.Remove(id)
	if !ok {
		return nil, 0, errMigrateGone
	}
	s.scheds[from].killJobsOn(inst, "", "instance migrating")
	return inst, from, nil
}

// MigrateToShard moves the instance onto another shard of this server:
// snapshot, restore into a fresh instance on the target shard's pool,
// stop the origin. In-process migration carries the instance's epoch
// hook and trace along, so an embedded daemon's mirroring survives the
// move. It sets no schedule of its own: the checkpoint it encodes carries
// the origin's place in the tick schedule like every other restore, so a
// paced instance keeps ticking on time however often it moves. On any
// failure the origin instance is reinstated untouched.
func (s *Server) MigrateToShard(id string, target int) (*MigrateResult, error) {
	if target < 0 || target >= s.reg.ShardCount() {
		return nil, fmt.Errorf("no shard %d (server has %d)", target, s.reg.ShardCount())
	}
	start := time.Now()
	inst, from, err := s.detach(id)
	if err != nil {
		return nil, err
	}
	spec := InstanceSpec{EpochHook: inst.epochHook, Trace: inst.trace}
	cp, err := inst.Checkpoint()
	if err != nil {
		s.reg.readd(inst, from)
		return nil, err
	}
	// Cross-shard moves travel through the binary wire format — what
	// restores is the serialized artifact, exactly as in a cross-process
	// migration, so the in-process fast path can never drift from the
	// on-disk one.
	wire, err := EncodeCheckpointFileBinary(cp)
	if err != nil {
		s.reg.readd(inst, from)
		return nil, fmt.Errorf("encode checkpoint: %w", err)
	}
	spec.Restore, err = DecodeCheckpointFile(wire)
	if err != nil {
		s.reg.readd(inst, from)
		return nil, fmt.Errorf("decode checkpoint: %w", err)
	}
	fresh, err := s.createInstance(spec, target, "from "+id)
	if err != nil {
		s.reg.readd(inst, from)
		return nil, err
	}
	detail := fmt.Sprintf("to %s on shard %d", fresh.ID(), target)
	s.reg.shards[from].publish("migrate-out", id, detail)
	inst.publishLifecycle("migrated", detail)
	inst.Stop()
	s.reg.noteMigration()
	migrateHist.Observe(time.Since(start))
	return &MigrateResult{
		From: id, FromShard: from,
		To: fresh.ID(), ToShard: target,
		Epoch: cp.Engine.Epoch,
	}, nil
}

// MigrateToPeer moves the instance onto another daemon: snapshot, POST
// the restore spec to the peer's create route, stop the origin on
// success. Epoch hooks and traces are in-process callbacks and do not
// cross the wire. On any failure — peer unreachable, create rejected —
// the origin instance is reinstated untouched and the error reports the
// peer's verdict.
func (s *Server) MigrateToPeer(id, peer string) (*MigrateResult, error) {
	start := time.Now()
	inst, from, err := s.detach(id)
	if err != nil {
		return nil, err
	}
	cp, err := inst.Checkpoint()
	if err != nil {
		s.reg.readd(inst, from)
		return nil, err
	}
	body, err := json.Marshal(InstanceSpec{Restore: cp})
	if err != nil {
		s.reg.readd(inst, from)
		return nil, fmt.Errorf("encode checkpoint: %w", err)
	}
	url := strings.TrimSuffix(peer, "/") + "/api/v1/instances"
	resp, err := migrateClient.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		s.reg.readd(inst, from)
		return nil, &peerError{fmt.Errorf("peer create failed: %w", err)}
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		s.reg.readd(inst, from)
		return nil, &peerError{fmt.Errorf("peer refused the restore: %s: %s", resp.Status, strings.TrimSpace(string(msg)))}
	}
	var st Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		// The peer accepted and now runs the copy; stopping the origin is
		// still the only safe continuation (two live copies would race
		// their side effects), even though the new id is unknown.
		st.ID = "unknown"
	}
	detail := fmt.Sprintf("to %s on peer %s", st.ID, peer)
	s.reg.shards[from].publish("migrate-out", id, detail)
	inst.publishLifecycle("migrated", detail)
	inst.Stop()
	s.reg.noteMigration()
	migrateHist.Observe(time.Since(start))
	return &MigrateResult{
		From: id, FromShard: from,
		To: st.ID, ToShard: st.Shard, Peer: peer,
		Epoch: cp.Engine.Epoch,
	}, nil
}

func (s *Server) handleMigrate(w http.ResponseWriter, r *http.Request) {
	inst, ok := s.instance(w, r)
	if !ok {
		return
	}
	var req MigrateRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if (req.Shard == nil) == (req.Peer == "") {
		apiError(w, http.StatusBadRequest, "exactly one of shard or peer must be set")
		return
	}
	var res *MigrateResult
	var err error
	if req.Shard != nil {
		res, err = s.MigrateToShard(inst.ID(), *req.Shard)
	} else {
		res, err = s.MigrateToPeer(inst.ID(), req.Peer)
	}
	var pe *peerError
	switch {
	case err == nil:
		writeJSON(w, http.StatusOK, res)
	case errors.Is(err, errMigrateGone):
		apiError(w, http.StatusNotFound, "no instance %q", inst.ID())
	case errors.As(err, &pe):
		apiError(w, http.StatusBadGateway, "%v", err)
	default:
		doErr(w, err)
	}
}
