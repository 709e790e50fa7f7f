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
// from the registry, evicts its fleet jobs back into this server's job
// queue, snapshots it between epochs, and restores the snapshot
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
// removal (a concurrent delete or migration won).
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

// migrate is the one migration path. It removes id from the registry,
// evicts its fleet jobs back into this server's job queue
// (checkpoints prune fleet-owned tasks, so keeping the jobs running would
// double-run them), checkpoints the instance between epochs and hands the
// checkpoint to ship, which restores it elsewhere and reports where. On
// success the origin announces the move and stops; on any failure it is
// reinstated untouched.
func (s *Server) migrate(id string, ship func(*Instance, *InstanceCheckpoint) (*MigrateResult, error)) (*MigrateResult, error) {
	start := time.Now()
	inst, from, ok := s.reg.Remove(id)
	if !ok {
		return nil, errMigrateGone
	}
	s.jobs.killJobsOn(inst, "", "instance migrating")
	cp, err := inst.Checkpoint()
	var res *MigrateResult
	if err == nil {
		res, err = ship(inst, cp)
	}
	if err != nil {
		s.reg.readd(inst)
		return nil, err
	}
	res.From, res.FromShard, res.Epoch = id, from, cp.Engine.Epoch
	detail := fmt.Sprintf("to %s on shard %d", res.To, res.ToShard)
	if res.Peer != "" {
		detail = fmt.Sprintf("to %s on peer %s", res.To, res.Peer)
	}
	inst.publishLifecycle("migrated", detail)
	inst.Stop()
	s.reg.migrations.Add(1)
	migrateHist.Observe(time.Since(start))
	return res, nil
}

// MigrateToShard moves the instance onto another shard of this server,
// restoring it into a fresh instance placed on the target shard.
// In-process migration carries the instance's epoch hook and trace
// along, so an embedded daemon's mirroring survives the move. It sets no
// schedule of its own: the checkpoint carries the origin's place in the
// tick schedule like every other restore, so a paced instance keeps
// ticking on time however often it moves.
func (s *Server) MigrateToShard(id string, target int) (*MigrateResult, error) {
	if target < 0 || target >= s.reg.ShardCount() {
		return nil, fmt.Errorf("no shard %d (server has %d)", target, s.reg.ShardCount())
	}
	return s.migrate(id, func(inst *Instance, cp *InstanceCheckpoint) (*MigrateResult, error) {
		// Cross-shard moves travel through the binary wire format — what
		// restores is the serialized artifact, exactly as in a
		// cross-process migration, so the in-process fast path can never
		// drift from the on-disk one.
		wire, err := EncodeCheckpointFileBinary(cp)
		if err != nil {
			return nil, fmt.Errorf("encode checkpoint: %w", err)
		}
		spec := InstanceSpec{EpochHook: inst.epochHook, Trace: inst.trace}
		if spec.Restore, err = DecodeCheckpointFile(wire); err != nil {
			return nil, fmt.Errorf("decode checkpoint: %w", err)
		}
		fresh, err := s.createInstance(spec, target)
		if err != nil {
			return nil, err
		}
		return &MigrateResult{To: fresh.ID(), ToShard: target}, nil
	})
}

// MigrateToPeer moves the instance onto another daemon by POSTing the
// restore spec to the peer's create route. Epoch hooks and traces are
// in-process callbacks and do not cross the wire. A failure the peer
// causes — unreachable, create rejected — is a peerError carrying the
// peer's verdict.
func (s *Server) MigrateToPeer(id, peer string) (*MigrateResult, error) {
	return s.migrate(id, func(_ *Instance, cp *InstanceCheckpoint) (*MigrateResult, error) {
		body, err := json.Marshal(InstanceSpec{Restore: cp})
		if err != nil {
			return nil, fmt.Errorf("encode checkpoint: %w", err)
		}
		url := strings.TrimSuffix(peer, "/") + "/api/v1/instances"
		resp, err := migrateClient.Post(url, "application/json", bytes.NewReader(body))
		if err != nil {
			return nil, &peerError{fmt.Errorf("peer create failed: %w", err)}
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusCreated {
			msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
			return nil, &peerError{fmt.Errorf("peer refused the restore: %s: %s", resp.Status, strings.TrimSpace(string(msg)))}
		}
		var st Status
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			// The peer accepted and now runs the copy; stopping the origin
			// is still the only safe continuation (two live copies would
			// race their side effects), even though the new id is unknown.
			st.ID = "unknown"
		}
		return &MigrateResult{To: st.ID, ToShard: st.Shard, Peer: peer}, nil
	})
}

func (s *Server) handleMigrate(w http.ResponseWriter, r *http.Request) {
	inst, ok := s.instance(w, r)
	if !ok {
		return
	}
	var req MigrateRequest
	if !DecodeBody(w, r, &req, BodyLimit) {
		return
	}
	if (req.Shard == nil) == (req.Peer == "") {
		APIError(w, http.StatusBadRequest, "exactly one of shard or peer must be set")
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
		WriteJSON(w, http.StatusOK, res)
	case errors.Is(err, errMigrateGone):
		APIError(w, http.StatusNotFound, "no instance %q", inst.ID())
	case errors.As(err, &pe):
		APIError(w, http.StatusBadGateway, "%v", err)
	default:
		doErr(w, err)
	}
}
