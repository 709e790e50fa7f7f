package serve

import (
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"heracles/internal/engine"
)

// Start brings the pool up as the daemon does: with a CheckpointDir it
// resumes every checkpoint there (resume); when none resumed and
// bootstrap is set it creates boot; then it arms the checkpointer, its
// first pass due at once, so that pass follows the scan and writes the
// bootstrap too. It returns how many instances resumed and the boot
// instance, created or restored (nil when there is none).
func (s *Server) Start(boot InstanceSpec, bootstrap bool, horizon int) (int, *Instance, error) {
	restored, inst := 0, (*Instance)(nil)
	if s.ckpt != nil {
		if err := os.MkdirAll(s.ckpt.dir, 0o755); err != nil {
			return 0, nil, fmt.Errorf("checkpoint dir: %w", err)
		}
		restored, inst = s.resume(boot, horizon)
	}
	if bootstrap && restored == 0 {
		var err error
		if inst, err = s.CreateInstance(boot); err != nil {
			return 0, nil, fmt.Errorf("bootstrap instance: %w", err)
		}
	}
	if s.ckpt != nil {
		s.ckpt.mu.Lock()
		s.ckpt.stopped = false
		s.ckpt.mu.Unlock()
		s.reg.pool.schedule(s.ckpt.entry, time.Now())
	}
	return restored, inst, nil
}

// AllDone returns a channel closed once every instance registered now is
// done (parked at its max_epochs) or stopped: the end of a headless run.
// It waits on each instance's parked channel, which closes once: nothing
// polls, and no epoch of a running instance wakes it.
func (s *Server) AllDone() <-chan struct{} {
	c := make(chan struct{})
	insts := s.reg.List()
	go func() {
		defer close(c)
		for _, inst := range insts {
			select {
			case <-inst.parked:
			case <-inst.donec:
				return
			}
		}
	}()
	return c
}

// resume restores each checkpoint in the directory under its stem: a
// federated id stays where the router placed it, and a minted i<n> moves
// the mint counter past n. It visits each stem once, from <id>.ckpt or,
// when only that is listed, <id>.ckpt.1, and leaves every fallback to
// ReadCheckpointFallback, which sets a corrupt primary aside so the next
// write keeps the good generation. Every instance runs at boot.Speed (0
// keeps its checkpoint's) and, when horizon is positive, stops there.
// The first one named boot.Name takes boot's hook and trace, so the
// bootstrap keeps its mirror and log across a crash, and is returned.
func (s *Server) resume(boot InstanceSpec, horizon int) (int, *Instance) {
	dir := s.ckpt.dir
	entries, err := os.ReadDir(dir)
	if err != nil {
		log.Printf("heraclesd: scanning %s: %v", dir, err)
		return 0, nil
	}
	listed := make(map[string]bool, len(entries))
	for _, e := range entries {
		listed[e.Name()] = true
	}
	restored, bootInst := 0, (*Instance)(nil)
	for _, e := range entries {
		id, ok := strings.CutSuffix(e.Name(), ".ckpt")
		if !ok {
			if id, ok = strings.CutSuffix(e.Name(), ".ckpt.1"); !ok || listed[id+".ckpt"] {
				continue // not a checkpoint, or visited as its primary
			}
		}
		path, primary := filepath.Join(dir, id+".ckpt"), listed[id+".ckpt"]
		// fail sets aside the file that could not be used: the generation
		// the checkpoint came from, or, when nothing decoded, the newest
		// one listed (after a fallback the primary is already path.failed).
		fail := func(src string, err error) {
			log.Printf("heraclesd: restoring %s: %v (kept as %s.failed)", path, err, src)
			if err := os.Rename(src, src+".failed"); err != nil {
				log.Printf("heraclesd: %v", err)
			}
		}
		cp, src, err := ReadCheckpointFallback(path)
		switch {
		case err != nil && primary:
			fail(path, err)
			continue
		case err != nil:
			fail(path+".1", err)
			continue
		case src != path && primary:
			log.Printf("heraclesd: %s failed verification, falling back to previous generation %s", path, src)
		case src != path:
			log.Printf("heraclesd: %s is missing, falling back to previous generation %s", path, src)
		}
		if !validName(id) && !minted(id) {
			fail(src, fmt.Errorf("%q is not an instance id", id))
			continue
		}
		spec := InstanceSpec{Restore: cp, Speed: boot.Speed, MaxEpochs: horizon}
		if spec.Speed < 0 {
			spec.Restore = cp.unpaced()
		}
		isBoot := bootInst == nil && boot.Name != "" && cp.Name == boot.Name
		if isBoot {
			spec.EpochHook, spec.Trace = boot.EpochHook, boot.Trace
		}
		inst, err := s.create(spec, id, -1)
		if err != nil {
			fail(src, err)
			continue
		}
		if isBoot {
			bootInst = inst
		}
		log.Printf("heraclesd: restored instance %s from %s (epoch %d)", inst.ID(), path, cp.Engine.Epoch)
		restored++
	}
	return restored, bootInst
}

// checkpointer is the checkpoint pass as one epoch-scheduler task: a
// slice writes one instance and requeues due now, so a slow fsync holds
// a worker for one file; the slice ending a pass sweeps and requeues one
// cadence later. It stays stopped until Start arms it, after the scan.
type checkpointer struct {
	reg   *Registry
	dir   string
	every time.Duration
	entry *poolEntry

	mu      sync.Mutex
	stopped bool
	todo    []*Instance // the rest of the pass in progress
	buf     []byte      // the last write's encoding, reused by the next
}

// stop cancels the entry and, if Start armed the checkpointer, runs one
// whole final pass while the instances still run. Once stopped is set
// under mu no slice is in flight, and none writes again.
func (c *checkpointer) stop() {
	c.reg.pool.remove(c.entry)
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.stopped {
		c.stopped = true
		for c.todo = nil; c.step(); {
		}
	}
}

func (c *checkpointer) runSlice() (time.Time, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	switch {
	case c.stopped:
		return time.Time{}, false
	case c.step():
		return time.Now(), true
	}
	return time.Now().Add(c.every), true
}

// step writes the next instance of the pass, taking the instance list
// when a pass starts, and reports whether any is left; the step that
// ends a pass sweeps. c.mu is held.
func (c *checkpointer) step() bool {
	if c.todo == nil {
		c.todo = c.reg.List()
	}
	if len(c.todo) > 0 {
		c.write(c.todo[0])
		if c.todo = c.todo[1:]; len(c.todo) > 0 {
			return true
		}
	}
	c.todo = nil
	c.sweep()
	return false
}

// write stores one instance's checkpoint. A crashed, quarantined or
// stopped instance refuses one and keeps the generations it has.
func (c *checkpointer) write(inst *Instance) {
	var err error
	if inst.Do(func() error {
		c.buf, _, err = inst.encode(c.buf[:0])
		return nil
	}) != nil {
		return
	}
	if err == nil {
		err = engine.WriteFile(filepath.Join(c.dir, inst.ID()+".ckpt"), c.buf)
	}
	if err != nil {
		log.Printf("heraclesd: checkpoint %s: %v", inst.ID(), err)
	}
}

// sweep drops the files of instances no longer registered, their
// previous generations and half-written replacements included, so a
// restart does not resurrect deleted machines. The live set is the
// registry's now: an instance whose write failed or was refused keeps
// its files.
func (c *checkpointer) sweep() {
	live := make(map[string]bool)
	for _, inst := range c.reg.List() {
		live[inst.ID()+".ckpt"] = true
	}
	for _, suffix := range []string{"", ".1", ".tmp"} {
		paths, _ := filepath.Glob(filepath.Join(c.dir, "*.ckpt"+suffix))
		for _, p := range paths {
			if !live[strings.TrimSuffix(filepath.Base(p), suffix)] {
				os.Remove(p)
			}
		}
	}
}
