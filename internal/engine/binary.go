package engine

import (
	"fmt"
	"sort"
	"time"

	"heracles/internal/codec"
	"heracles/internal/core"
	"heracles/internal/fault"
	"heracles/internal/hw"
	"heracles/internal/machine"
	"heracles/internal/sched"
	"heracles/internal/slo"
	"heracles/internal/workload"
)

// The binary checkpoint codec (DESIGN.md §16): a versioned, length-
// prefixed little-endian encoding of Checkpoint, hand-rolled over
// internal/codec. It exists for the hot paths — periodic heraclesd
// snapshots, in-process shard migration, supervisor restart — where the
// reflection-driven JSON codec dominates the cost of a snapshot; JSON
// remains the wire/interchange format (REST bodies, cross-daemon
// migration, operator tooling). Both codecs decode to the same
// Checkpoint value, so a restored engine continues bit-identically
// regardless of which format carried the state.
//
// Layout: a 4-byte magic ("HRCB"), a uint16 format version, then the
// checkpoint fields in fixed order with uint32 length prefixes on every
// string and slice. Optional sections (scenario, sched, faults, budget)
// carry a presence byte. Maps encode in sorted key order, so the same
// state always produces the same bytes. Integrity (CRC-32C) is the
// enclosing envelope's job — see internal/serve's checkpoint files —
// keeping codec, checksum and storage concerns separate, exactly like
// the JSON path.

// binaryMagic distinguishes binary checkpoints from JSON ones (JSON
// always starts with '{' or whitespace); readers auto-detect by prefix.
var binaryMagic = [4]byte{'H', 'R', 'C', 'B'}

// BinaryVersion is the binary layout version. DecodeCheckpointBinary
// rejects other versions; bump it on any incompatible layout change
// (and document the change in DESIGN.md §16). It is independent of
// CheckpointVersion, which versions the logical state schema. Version 1
// carried a 600-entry ring of full telemetry records per machine; version
// 2 carries the last record plus the (time, tail) poll window.
const BinaryVersion = 2

// IsBinaryCheckpoint reports whether data begins with the binary
// checkpoint magic — the auto-detection used by every resume path.
func IsBinaryCheckpoint(data []byte) bool {
	return len(data) >= 4 && [4]byte(data[:4]) == binaryMagic
}

// EncodeBinary serialises the checkpoint to a fresh buffer.
func (cp *Checkpoint) EncodeBinary() []byte { return cp.AppendBinary(nil) }

// AppendBinary serialises the checkpoint, appending to buf (pass scratch
// from a previous encode to amortise allocation) and returning the
// extended buffer.
func (cp *Checkpoint) AppendBinary(buf []byte) []byte {
	w := codec.NewWriter(buf)
	w.U8(binaryMagic[0])
	w.U8(binaryMagic[1])
	w.U8(binaryMagic[2])
	w.U8(binaryMagic[3])
	w.U16(BinaryVersion)

	w.Int(cp.Version)
	w.U64(cp.Epoch)
	w.Duration(cp.Now)
	w.Duration(cp.SLO)
	w.F64(cp.LeafScale)
	w.Duration(cp.LastAdjust)
	w.F64(cp.RootEWMA)

	w.Bool(cp.Scenario != nil)
	if cp.Scenario != nil {
		w.String(cp.Scenario.Name)
		w.Duration(cp.Scenario.T0)
		w.Int(cp.Scenario.Delivered)
		w.F64(cp.Scenario.LoadScale)
	}

	w.U32(uint32(len(cp.Machines)))
	for i := range cp.Machines {
		appendMachine(w, &cp.Machines[i])
	}

	w.U32(uint32(len(cp.Controllers)))
	for _, st := range cp.Controllers {
		w.Bool(st != nil)
		if st != nil {
			appendController(w, st)
		}
	}

	w.Bool(cp.Sched != nil)
	if cp.Sched != nil {
		appendSched(w, cp.Sched)
	}
	w.U32(uint32(len(cp.SchedBindings)))
	for _, b := range cp.SchedBindings {
		w.Int(b.Job)
		w.Int(b.Node)
		w.Int(b.Task)
	}

	w.Bool(cp.Faults != nil)
	if cp.Faults != nil {
		appendFaults(w, cp.Faults)
	}

	w.Bool(cp.Budget != nil)
	if cp.Budget != nil {
		w.U32(uint32(len(cp.Budget.Nodes)))
		for i := range cp.Budget.Nodes {
			appendTracker(w, &cp.Budget.Nodes[i])
		}
		appendTracker(w, &cp.Budget.Cluster)
	}
	return w.Bytes()
}

// DecodeCheckpointBinary parses a binary checkpoint. Malformed input of
// any kind — truncation, oversized length claims, version skew, trailing
// garbage — returns an error, never a panic.
func DecodeCheckpointBinary(data []byte) (*Checkpoint, error) {
	if !IsBinaryCheckpoint(data) {
		return nil, fmt.Errorf("engine: not a binary checkpoint (missing %q magic)", binaryMagic)
	}
	r := codec.NewReader(data[4:])
	if v := r.U16(); v != BinaryVersion {
		return nil, fmt.Errorf("engine: binary checkpoint layout version %d, this build reads version %d", v, BinaryVersion)
	}

	cp := &Checkpoint{}
	cp.Version = r.Int()
	cp.Epoch = r.U64()
	cp.Now = r.Duration()
	cp.SLO = r.Duration()
	cp.LeafScale = r.F64()
	cp.LastAdjust = r.Duration()
	cp.RootEWMA = r.F64()

	if r.Bool() {
		cp.Scenario = &ScenarioState{
			Name:      r.String(),
			T0:        r.Duration(),
			Delivered: r.Int(),
			LoadScale: r.F64(),
		}
	}

	// A machine snapshot is at least ~150 bytes; 32 is a safe floor for
	// the count guard.
	if n := r.Count(32); n > 0 {
		cp.Machines = make([]machine.Snapshot, n)
		for i := range cp.Machines {
			readMachine(r, &cp.Machines[i])
			if r.Err() != nil {
				return nil, fmt.Errorf("engine: decoding binary checkpoint machine %d: %w", i, r.Err())
			}
		}
	}

	if n := r.Count(1); n > 0 {
		cp.Controllers = make([]*core.ControllerState, n)
		for i := range cp.Controllers {
			if r.Bool() {
				st := readController(r)
				cp.Controllers[i] = &st
			}
		}
	}

	if r.Bool() {
		st := readSched(r)
		if r.Err() != nil {
			return nil, fmt.Errorf("engine: decoding binary checkpoint scheduler: %w", r.Err())
		}
		cp.Sched = &st
	}
	if n := r.Count(24); n > 0 {
		cp.SchedBindings = make([]SchedBinding, n)
		for i := range cp.SchedBindings {
			cp.SchedBindings[i] = SchedBinding{Job: r.Int(), Node: r.Int(), Task: r.Int()}
		}
	}

	if r.Bool() {
		cp.Faults = readFaults(r)
	}

	if r.Bool() {
		bs := &SLOState{}
		if n := r.Count(8); n > 0 {
			bs.Nodes = make([]slo.TrackerState, n)
			for i := range bs.Nodes {
				bs.Nodes[i] = readTracker(r)
			}
		}
		bs.Cluster = readTracker(r)
		cp.Budget = bs
	}

	if err := r.Expect(); err != nil {
		return nil, fmt.Errorf("engine: decoding binary checkpoint: %w", err)
	}
	return cp, nil
}

// appendMachine encodes one machine snapshot: hardware config, clock,
// tasks, accumulators, the last epoch's telemetry, then the poll window.
func appendMachine(w *codec.Writer, s *machine.Snapshot) {
	appendHW(w, &s.HW)
	w.Duration(s.Epoch)
	w.Duration(s.Now)

	w.Bool(s.LC != nil)
	if s.LC != nil {
		w.String(s.LC.Workload)
		w.F64(s.LC.Load)
		w.Ints(s.LC.Cores)
		w.Int(s.LC.Ways)
		w.Bool(s.LC.OSShared)
	}

	w.U32(uint32(len(s.BEs)))
	for i := range s.BEs {
		be := &s.BEs[i]
		w.String(be.Workload)
		w.Int(int(be.Placement))
		w.Bool(be.Enabled)
		w.Ints(be.Cores)
		w.Int(be.Ways)
		w.F64(be.FreqCapGHz)
		w.F64(be.LastRate)
		w.F64(be.LastNorm)
		w.F64(be.LastHit)
		w.F64(be.CPUSec)
	}

	w.F64(s.BENetCeilGBs)
	w.F64(s.SLOScale)
	w.F64(s.Degrade)
	w.F64(s.BEGoodCPUSec)
	w.F64(s.BELostCPUSec)
	w.F64(s.LastService)

	appendTelemetry(w, &s.Last)
	w.U32(uint32(len(s.Window)))
	for _, p := range s.Window {
		w.Duration(p.Time)
		w.Duration(p.TailLatency)
	}
}

// readMachine decodes one machine snapshot.
func readMachine(r *codec.Reader, s *machine.Snapshot) {
	readHW(r, &s.HW)
	s.Epoch = r.Duration()
	s.Now = r.Duration()

	if r.Bool() {
		s.LC = &machine.LCSnapshot{
			Workload: r.String(),
			Load:     r.F64(),
			Cores:    r.Ints(),
			Ways:     r.Int(),
			OSShared: r.Bool(),
		}
	}

	if n := r.Count(32); n > 0 {
		s.BEs = make([]machine.BESnapshot, n)
		for i := range s.BEs {
			s.BEs[i] = machine.BESnapshot{
				Workload:   r.String(),
				Placement:  workload.PlacementKind(r.Int()),
				Enabled:    r.Bool(),
				Cores:      r.Ints(),
				Ways:       r.Int(),
				FreqCapGHz: r.F64(),
				LastRate:   r.F64(),
				LastNorm:   r.F64(),
				LastHit:    r.F64(),
				CPUSec:     r.F64(),
			}
		}
	}

	s.BENetCeilGBs = r.F64()
	s.SLOScale = r.F64()
	s.Degrade = r.F64()
	s.BEGoodCPUSec = r.F64()
	s.BELostCPUSec = r.F64()
	s.LastService = r.F64()

	readTelemetry(r, &s.Last)
	if n := r.Count(16); n > 0 {
		s.Window = make([]machine.TailSample, n)
		for i := range s.Window {
			s.Window[i] = machine.TailSample{Time: r.Duration(), TailLatency: r.Duration()}
		}
	}
}

// appendHW encodes the hardware config field-by-field (it is a flat
// struct of ints and floats).
func appendHW(w *codec.Writer, c *hw.Config) {
	w.Int(c.Sockets)
	w.Int(c.CoresPerSocket)
	w.Int(c.ThreadsPerCore)
	w.F64(c.NominalGHz)
	w.F64(c.MinGHz)
	w.F64(c.MaxTurboGHz)
	w.F64(c.TurboBinGHz)
	w.F64(c.LLCMB)
	w.Int(c.LLCWays)
	w.F64(c.DRAMGBs)
	w.F64(c.TDPWatts)
	w.F64(c.IdleWatts)
	w.F64(c.CoreDynWatts)
	w.F64(c.FreqExponent)
	w.F64(c.LinkGbps)
}

func readHW(r *codec.Reader, c *hw.Config) {
	c.Sockets = r.Int()
	c.CoresPerSocket = r.Int()
	c.ThreadsPerCore = r.Int()
	c.NominalGHz = r.F64()
	c.MinGHz = r.F64()
	c.MaxTurboGHz = r.F64()
	c.TurboBinGHz = r.F64()
	c.LLCMB = r.F64()
	c.LLCWays = r.Int()
	c.DRAMGBs = r.F64()
	c.TDPWatts = r.F64()
	c.IdleWatts = r.F64()
	c.CoreDynWatts = r.F64()
	c.FreqExponent = r.F64()
	c.LinkGbps = r.F64()
}

// appendTelemetry encodes one epoch's counters in declaration order.
func appendTelemetry(w *codec.Writer, t *machine.Telemetry) {
	w.Duration(t.Time)
	w.Duration(t.Lat.Mean)
	w.Duration(t.Lat.P50)
	w.Duration(t.Lat.P95)
	w.Duration(t.Lat.P99)
	w.F64(t.Lat.OfferedQPS)
	w.F64(t.Lat.ServedQPS)
	w.F64(t.Lat.Utilisation)
	w.Duration(t.TailLatency)
	w.F64(t.LCLoad)
	w.F64(t.LCServed)
	w.Int(t.LCCores)
	w.Int(t.LCWays)
	w.F64(t.LCFreqGHz)
	w.F64(t.LCDRAMGBs)
	w.F64(t.LCTxGBs)
	w.Bool(t.BEEnabled)
	w.Int(t.BECores)
	w.Int(t.BEWays)
	w.F64(t.BEFreqCap)
	w.F64(t.BEDRAMGBs)
	w.F64(t.BETxGBs)
	w.F64(t.BERateNorm)
	w.F64(t.BEFreqGHz)
	w.F64(t.BEGoodCPUSec)
	w.F64(t.BELostCPUSec)
	w.Floats(t.SocketPowerW)
	w.F64(t.PowerFracTDP)
	w.F64(t.MaxSocketPower)
	w.F64(t.CPUUtil)
	w.F64(t.DRAMTotalGBs)
	w.F64(t.DRAMDemandGBs)
	w.F64(t.DRAMUtil)
	w.Floats(t.DRAMSocketUtil)
	w.Floats(t.PerCoreDRAMGBs)
	w.F64(t.LinkUtil)
	w.F64(t.EMU)
}

// readTelemetry decodes one epoch's counters.
func readTelemetry(r *codec.Reader, t *machine.Telemetry) {
	t.Time = r.Duration()
	t.Lat.Mean = r.Duration()
	t.Lat.P50 = r.Duration()
	t.Lat.P95 = r.Duration()
	t.Lat.P99 = r.Duration()
	t.Lat.OfferedQPS = r.F64()
	t.Lat.ServedQPS = r.F64()
	t.Lat.Utilisation = r.F64()
	t.TailLatency = r.Duration()
	t.LCLoad = r.F64()
	t.LCServed = r.F64()
	t.LCCores = r.Int()
	t.LCWays = r.Int()
	t.LCFreqGHz = r.F64()
	t.LCDRAMGBs = r.F64()
	t.LCTxGBs = r.F64()
	t.BEEnabled = r.Bool()
	t.BECores = r.Int()
	t.BEWays = r.Int()
	t.BEFreqCap = r.F64()
	t.BEDRAMGBs = r.F64()
	t.BETxGBs = r.F64()
	t.BERateNorm = r.F64()
	t.BEFreqGHz = r.F64()
	t.BEGoodCPUSec = r.F64()
	t.BELostCPUSec = r.F64()
	t.SocketPowerW = r.Floats()
	t.PowerFracTDP = r.F64()
	t.MaxSocketPower = r.F64()
	t.CPUUtil = r.F64()
	t.DRAMTotalGBs = r.F64()
	t.DRAMDemandGBs = r.F64()
	t.DRAMUtil = r.F64()
	t.DRAMSocketUtil = r.Floats()
	t.PerCoreDRAMGBs = r.Floats()
	t.LinkUtil = r.F64()
	t.EMU = r.F64()
}

func appendController(w *codec.Writer, st *core.ControllerState) {
	w.Bool(st.Enabled)
	w.Bool(st.GrowAllowed)
	w.Duration(st.CooldownTill)
	w.F64(st.Slack)
	w.Duration(st.Latency)
	w.Duration(st.LastTelemetry)
	w.Int(int(st.StaleState))
	w.Int(int(st.State))
	w.F64(st.LastBW)
	w.F64(st.BWDerivative)
	w.Int(st.PendingWays)
	w.Bool(st.PendingCheck)
	w.F64(st.RateBefore)
	w.Duration(st.LastGrow)
	w.Duration(st.NextTop)
	w.Duration(st.NextCore)
	w.Duration(st.NextPower)
	w.Duration(st.NextNet)
}

func readController(r *codec.Reader) core.ControllerState {
	return core.ControllerState{
		Enabled:       r.Bool(),
		GrowAllowed:   r.Bool(),
		CooldownTill:  r.Duration(),
		Slack:         r.F64(),
		Latency:       r.Duration(),
		LastTelemetry: r.Duration(),
		StaleState:    core.StaleState(r.Int()),
		State:         core.GrowState(r.Int()),
		LastBW:        r.F64(),
		BWDerivative:  r.F64(),
		PendingWays:   r.Int(),
		PendingCheck:  r.Bool(),
		RateBefore:    r.F64(),
		LastGrow:      r.Duration(),
		NextTop:       r.Duration(),
		NextCore:      r.Duration(),
		NextPower:     r.Duration(),
		NextNet:       r.Duration(),
	}
}

// appendSched encodes the scheduler state. DisabledSince writes in
// ascending node order so identical states produce identical bytes.
func appendSched(w *codec.Writer, st *sched.State) {
	w.String(st.Policy)
	w.Duration(st.Backoff)
	w.Duration(st.EvictGrace)
	w.U64(st.RNGSeed)
	w.U64(st.Tick)

	w.U32(uint32(len(st.Jobs)))
	for i := range st.Jobs {
		j := &st.Jobs[i]
		w.Int(j.ID)
		w.String(j.Spec.Name)
		w.String(j.Spec.Workload)
		w.Int(j.Spec.Demand)
		w.Duration(j.Spec.Work)
		w.Int(j.Spec.Priority)
		w.Int(j.Spec.Retries)
		w.Duration(j.Spec.Submit)
		w.Int(int(j.State))
		w.Int(j.Node)
		w.Int(j.Attempts)
		w.Duration(j.SubmittedAt)
		w.Duration(j.ReadyAt)
		w.Duration(j.StartedAt)
		w.Duration(j.FinishedAt)
		w.F64(j.CPUSec)
		w.F64(j.WastedCPUSec)
	}

	nodes := make([]int, 0, len(st.DisabledSince))
	for n := range st.DisabledSince {
		nodes = append(nodes, n)
	}
	sort.Ints(nodes)
	w.U32(uint32(len(nodes)))
	for _, n := range nodes {
		w.Int(n)
		w.Duration(st.DisabledSince[n])
	}

	a := &st.Accounting
	w.Int(a.Submitted)
	w.Int(a.Dispatches)
	w.Int(a.Completed)
	w.Int(a.Evictions)
	w.Int(a.Failed)
	w.Int(a.Cancelled)
	w.Int(a.Aborted)
	w.F64(a.GoodCPUSec)
	w.F64(a.WastedCPUSec)
	w.Duration(a.QueueDelaySum)
	w.Int(a.QueueDepth)
	w.Int(a.Running)
	w.Int(a.MaxQueueDepth)

	w.U32(uint32(len(st.Log)))
	for i := range st.Log {
		d := &st.Log[i]
		w.Duration(d.At)
		w.Int(int(d.Kind))
		w.Int(d.Job)
		w.Int(d.Node)
		w.String(d.Detail)
	}
}

func readSched(r *codec.Reader) sched.State {
	st := sched.State{
		Policy:     r.String(),
		Backoff:    r.Duration(),
		EvictGrace: r.Duration(),
		RNGSeed:    r.U64(),
		Tick:       r.U64(),
	}

	if n := r.Count(64); n > 0 {
		st.Jobs = make([]sched.Job, n)
		for i := range st.Jobs {
			j := &st.Jobs[i]
			j.ID = r.Int()
			j.Spec.Name = r.String()
			j.Spec.Workload = r.String()
			j.Spec.Demand = r.Int()
			j.Spec.Work = r.Duration()
			j.Spec.Priority = r.Int()
			j.Spec.Retries = r.Int()
			j.Spec.Submit = r.Duration()
			j.State = sched.JobState(r.Int())
			j.Node = r.Int()
			j.Attempts = r.Int()
			j.SubmittedAt = r.Duration()
			j.ReadyAt = r.Duration()
			j.StartedAt = r.Duration()
			j.FinishedAt = r.Duration()
			j.CPUSec = r.F64()
			j.WastedCPUSec = r.F64()
		}
	}

	if n := r.Count(16); n > 0 {
		st.DisabledSince = make(map[int]time.Duration, n)
		for i := 0; i < n; i++ {
			node := r.Int()
			st.DisabledSince[node] = r.Duration()
		}
	}

	a := &st.Accounting
	a.Submitted = r.Int()
	a.Dispatches = r.Int()
	a.Completed = r.Int()
	a.Evictions = r.Int()
	a.Failed = r.Int()
	a.Cancelled = r.Int()
	a.Aborted = r.Int()
	a.GoodCPUSec = r.F64()
	a.WastedCPUSec = r.F64()
	a.QueueDelaySum = r.Duration()
	a.QueueDepth = r.Int()
	a.Running = r.Int()
	a.MaxQueueDepth = r.Int()

	if n := r.Count(36); n > 0 {
		st.Log = make([]sched.Decision, n)
		for i := range st.Log {
			d := &st.Log[i]
			d.At = r.Duration()
			d.Kind = sched.ActionKind(r.Int())
			d.Job = r.Int()
			d.Node = r.Int()
			d.Detail = r.String()
		}
	}
	return st
}

func appendFaults(w *codec.Writer, fs *FaultState) {
	w.U32(uint32(len(fs.Schedule)))
	for i := range fs.Schedule {
		appendFault(w, &fs.Schedule[i])
	}
	w.Int(fs.Next)
	w.Int(fs.Applied)
	w.U32(uint32(len(fs.Pending)))
	for i := range fs.Pending {
		appendFault(w, &fs.Pending[i])
	}
	w.U32(uint32(len(fs.Nodes)))
	for _, n := range fs.Nodes {
		w.Duration(n.DownUntil)
		w.Duration(n.BlackoutUntil)
		w.Duration(n.ActFailUntil)
		w.Duration(n.SlowUntil)
	}
}

func readFaults(r *codec.Reader) *FaultState {
	fs := &FaultState{}
	if n := r.Count(44); n > 0 {
		fs.Schedule = make([]fault.Fault, n)
		for i := range fs.Schedule {
			fs.Schedule[i] = readFault(r)
		}
	}
	fs.Next = r.Int()
	fs.Applied = r.Int()
	if n := r.Count(44); n > 0 {
		fs.Pending = make([]fault.Fault, n)
		for i := range fs.Pending {
			fs.Pending[i] = readFault(r)
		}
	}
	if n := r.Count(32); n > 0 {
		fs.Nodes = make([]NodeFaultState, n)
		for i := range fs.Nodes {
			fs.Nodes[i] = NodeFaultState{
				DownUntil:     r.Duration(),
				BlackoutUntil: r.Duration(),
				ActFailUntil:  r.Duration(),
				SlowUntil:     r.Duration(),
			}
		}
	}
	return fs
}

func appendFault(w *codec.Writer, f *fault.Fault) {
	w.Duration(f.At)
	w.Int(int(f.Kind))
	w.Int(f.Node)
	w.Duration(f.Duration)
	w.F64(f.Factor)
	w.String(f.Workload)
}

func readFault(r *codec.Reader) fault.Fault {
	return fault.Fault{
		At:       r.Duration(),
		Kind:     fault.Kind(r.Int()),
		Node:     r.Int(),
		Duration: r.Duration(),
		Factor:   r.F64(),
		Workload: r.String(),
	}
}

func appendTracker(w *codec.Writer, st *slo.TrackerState) {
	w.Int(st.Epochs)
	w.I64(st.Violations)
	for _, c := range st.Counts {
		w.I64(c)
	}
	w.Bytes32(st.Ring)
	w.Bool(st.Page)
	w.Bool(st.Ticket)
}

func readTracker(r *codec.Reader) slo.TrackerState {
	st := slo.TrackerState{
		Epochs:     r.Int(),
		Violations: r.I64(),
	}
	for i := range st.Counts {
		st.Counts[i] = r.I64()
	}
	if b := r.Bytes32(); len(b) > 0 {
		st.Ring = append([]byte(nil), b...)
	}
	st.Page = r.Bool()
	st.Ticket = r.Bool()
	return st
}
