package engine

import (
	"cmp"
	"fmt"
	"slices"
	"time"

	"heracles/internal/codec"
	"heracles/internal/core"
	"heracles/internal/fault"
	"heracles/internal/hw"
	"heracles/internal/machine"
	"heracles/internal/sched"
	"heracles/internal/slo"
)

// The binary checkpoint codec (DESIGN.md §16): a versioned, length-
// prefixed little-endian encoding of Checkpoint over internal/codec, and
// the only format heraclesd stores. JSON (checkpoint.go's struct tags) is
// the REST view of the same value; a restored engine continues
// bit-identically whichever carried the state.
//
// Layout: a 4-byte magic ("HRCB"), a uint16 format version, then what
// walkCheckpoint visits, in the order it visits it. The walk* functions
// are the layout: each shows a codec.Coder its type's fields once, and
// AppendBinary and DecodeCheckpointBinary run the same list in opposite
// directions. A field added to a struct of the graph is added to that
// struct's walk, in one place, with a BinaryVersion bump; until then
// TestCodecsCarryEveryCheckpointField fails twice — the new field comes
// back zero, and testdata/checkpoint_full.hrcb no longer matches.
//
// Strings and slices carry a uint32 length, optional sections a presence
// byte. codec.Slice's last argument is the fewest bytes one element can
// occupy: the count guard divides the remaining input by it before
// anything is allocated. A failed read latches in the Reader and every
// later field reads as zero, so no walk checks for errors. Integrity
// (CRC-32C) is the enclosing envelope's job (internal/serve).

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
	w := codec.NewWriter(append(buf, binaryMagic[:]...))
	w.U16(BinaryVersion)
	c := codec.Encoder(w)
	walkCheckpoint(&c, cp)
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
	c := codec.Decoder(r)
	walkCheckpoint(&c, cp)
	if err := r.Expect(); err != nil {
		return nil, fmt.Errorf("engine: decoding binary checkpoint: %w", err)
	}
	return cp, nil
}

func walkCheckpoint(c *codec.Coder, cp *Checkpoint) {
	c.Int(&cp.Version)
	c.U64(&cp.Epoch)
	c.Duration(&cp.Now)
	c.Duration(&cp.SLO)
	c.F64(&cp.LeafScale)
	c.Duration(&cp.LastAdjust)
	c.F64(&cp.RootEWMA)

	if codec.Ptr(c, &cp.Scenario) {
		sc := cp.Scenario
		c.String(&sc.Name)
		c.Duration(&sc.T0)
		c.Int(&sc.Delivered)
		c.F64(&sc.LoadScale)
	}

	for i := range codec.Slice(c, &cp.Machines, 32) {
		walkMachine(c, &cp.Machines[i])
	}
	for i := range codec.Slice(c, &cp.Controllers, 1) {
		if codec.Ptr(c, &cp.Controllers[i]) {
			walkController(c, cp.Controllers[i])
		}
	}

	if codec.Ptr(c, &cp.Sched) {
		walkSched(c, cp.Sched)
	}
	for i := range codec.Slice(c, &cp.SchedBindings, 24) {
		b := &cp.SchedBindings[i]
		c.Int(&b.Job)
		c.Int(&b.Node)
		c.Int(&b.Task)
	}

	if codec.Ptr(c, &cp.Faults) {
		walkFaults(c, cp.Faults)
	}

	if codec.Ptr(c, &cp.Budget) {
		for i := range codec.Slice(c, &cp.Budget.Nodes, 8) {
			walkTracker(c, &cp.Budget.Nodes[i])
		}
		walkTracker(c, &cp.Budget.Cluster)
	}
}

// walkMachine covers one machine snapshot: hardware config, clock,
// tasks, accumulators, the last epoch's telemetry, then the poll window.
func walkMachine(c *codec.Coder, s *machine.Snapshot) {
	walkHW(c, &s.HW)
	c.Duration(&s.Epoch)
	c.Duration(&s.Now)

	if codec.Ptr(c, &s.LC) {
		c.String(&s.LC.Workload)
		c.F64(&s.LC.Load)
		c.Ints(&s.LC.Cores)
		c.Int(&s.LC.Ways)
		c.Bool(&s.LC.OSShared)
	}

	for i := range codec.Slice(c, &s.BEs, 32) {
		be := &s.BEs[i]
		c.String(&be.Workload)
		codec.Enum(c, &be.Placement)
		c.Bool(&be.Enabled)
		c.Ints(&be.Cores)
		c.Int(&be.Ways)
		c.F64(&be.FreqCapGHz)
		c.F64(&be.LastRate)
		c.F64(&be.LastNorm)
		c.F64(&be.LastHit)
		c.F64(&be.CPUSec)
	}

	c.F64(&s.BENetCeilGBs)
	c.F64(&s.SLOScale)
	c.F64(&s.Degrade)
	c.F64(&s.BEGoodCPUSec)
	c.F64(&s.BELostCPUSec)
	c.F64(&s.LastService)

	walkTelemetry(c, &s.Last)
	for i := range codec.Slice(c, &s.Window, 16) {
		c.Duration(&s.Window[i].Time)
		c.Duration(&s.Window[i].TailLatency)
	}
}

func walkHW(c *codec.Coder, h *hw.Config) {
	c.Int(&h.Sockets)
	c.Int(&h.CoresPerSocket)
	c.Int(&h.ThreadsPerCore)
	c.F64(&h.NominalGHz)
	c.F64(&h.MinGHz)
	c.F64(&h.MaxTurboGHz)
	c.F64(&h.TurboBinGHz)
	c.F64(&h.LLCMB)
	c.Int(&h.LLCWays)
	c.F64(&h.DRAMGBs)
	c.F64(&h.TDPWatts)
	c.F64(&h.IdleWatts)
	c.F64(&h.CoreDynWatts)
	c.F64(&h.FreqExponent)
	c.F64(&h.LinkGbps)
}

// walkTelemetry covers one epoch's counters in declaration order.
func walkTelemetry(c *codec.Coder, t *machine.Telemetry) {
	c.Duration(&t.Time)
	c.Duration(&t.Lat.Mean)
	c.Duration(&t.Lat.P50)
	c.Duration(&t.Lat.P95)
	c.Duration(&t.Lat.P99)
	c.F64(&t.Lat.OfferedQPS)
	c.F64(&t.Lat.ServedQPS)
	c.F64(&t.Lat.Utilisation)
	c.Duration(&t.TailLatency)
	c.F64(&t.LCLoad)
	c.F64(&t.LCServed)
	c.Int(&t.LCCores)
	c.Int(&t.LCWays)
	c.F64(&t.LCFreqGHz)
	c.F64(&t.LCDRAMGBs)
	c.F64(&t.LCTxGBs)
	c.Bool(&t.BEEnabled)
	c.Int(&t.BECores)
	c.Int(&t.BEWays)
	c.F64(&t.BEFreqCap)
	c.F64(&t.BEDRAMGBs)
	c.F64(&t.BETxGBs)
	c.F64(&t.BERateNorm)
	c.F64(&t.BEFreqGHz)
	c.F64(&t.BEGoodCPUSec)
	c.F64(&t.BELostCPUSec)
	c.Floats(&t.SocketPowerW)
	c.F64(&t.PowerFracTDP)
	c.F64(&t.MaxSocketPower)
	c.F64(&t.CPUUtil)
	c.F64(&t.DRAMTotalGBs)
	c.F64(&t.DRAMDemandGBs)
	c.F64(&t.DRAMUtil)
	c.Floats(&t.DRAMSocketUtil)
	c.Floats(&t.PerCoreDRAMGBs)
	c.F64(&t.LinkUtil)
	c.F64(&t.EMU)
}

func walkController(c *codec.Coder, st *core.ControllerState) {
	c.Bool(&st.Enabled)
	c.Bool(&st.GrowAllowed)
	c.Duration(&st.CooldownTill)
	c.F64(&st.Slack)
	c.Duration(&st.Latency)
	c.Duration(&st.LastTelemetry)
	codec.Enum(c, &st.StaleState)
	codec.Enum(c, &st.State)
	c.F64(&st.LastBW)
	c.F64(&st.BWDerivative)
	c.Int(&st.PendingWays)
	c.Bool(&st.PendingCheck)
	c.F64(&st.RateBefore)
	c.Duration(&st.LastGrow)
	c.Duration(&st.NextTop)
	c.Duration(&st.NextCore)
	c.Duration(&st.NextPower)
	c.Duration(&st.NextNet)
}

func walkSched(c *codec.Coder, st *sched.State) {
	c.String(&st.Policy)
	c.Duration(&st.Backoff)
	c.Duration(&st.EvictGrace)
	c.U64(&st.RNGSeed)
	c.U64(&st.Tick)

	for i := range codec.Slice(c, &st.Jobs, 64) {
		j := &st.Jobs[i]
		c.Int(&j.ID)
		c.String(&j.Spec.Name)
		c.String(&j.Spec.Workload)
		c.Int(&j.Spec.Demand)
		c.Duration(&j.Spec.Work)
		c.Int(&j.Spec.Priority)
		c.Int(&j.Spec.Retries)
		c.Duration(&j.Spec.Submit)
		codec.Enum(c, &j.State)
		c.Int(&j.Node)
		c.Int(&j.Attempts)
		c.Duration(&j.SubmittedAt)
		c.Duration(&j.ReadyAt)
		c.Duration(&j.StartedAt)
		c.Duration(&j.FinishedAt)
		c.F64(&j.CPUSec)
		c.F64(&j.WastedCPUSec)
	}

	walkDisabledSince(c, &st.DisabledSince)

	a := &st.Accounting
	c.Int(&a.Submitted)
	c.Int(&a.Dispatches)
	c.Int(&a.Completed)
	c.Int(&a.Evictions)
	c.Int(&a.Failed)
	c.Int(&a.Cancelled)
	c.Int(&a.Aborted)
	c.F64(&a.GoodCPUSec)
	c.F64(&a.WastedCPUSec)
	c.Duration(&a.QueueDelaySum)
	c.Int(&a.QueueDepth)
	c.Int(&a.Running)
	c.Int(&a.MaxQueueDepth)

	for i := range codec.Slice(c, &st.Log, 36) {
		d := &st.Log[i]
		c.Duration(&d.At)
		codec.Enum(c, &d.Kind)
		c.Int(&d.Job)
		c.Int(&d.Node)
		c.String(&d.Detail)
	}
}

// walkDisabledSince carries the graph's one map as (node, since) pairs
// in ascending node order, so the same state always produces the same
// bytes; an empty map decodes to nil.
func walkDisabledSince(c *codec.Coder, m *map[int]time.Duration) {
	type pair struct {
		node  int
		since time.Duration
	}
	var pairs []pair
	if !c.Decoding() {
		pairs = make([]pair, 0, len(*m))
		for node, since := range *m {
			pairs = append(pairs, pair{node, since})
		}
		slices.SortFunc(pairs, func(a, b pair) int { return cmp.Compare(a.node, b.node) })
	}
	for i := range codec.Slice(c, &pairs, 16) {
		c.Int(&pairs[i].node)
		c.Duration(&pairs[i].since)
	}
	if c.Decoding() && len(pairs) > 0 {
		*m = make(map[int]time.Duration, len(pairs))
		for _, p := range pairs {
			(*m)[p.node] = p.since
		}
	}
}

func walkFaults(c *codec.Coder, fs *FaultState) {
	for i := range codec.Slice(c, &fs.Schedule, 44) {
		walkFault(c, &fs.Schedule[i])
	}
	c.Int(&fs.Next)
	c.Int(&fs.Applied)
	for i := range codec.Slice(c, &fs.Pending, 44) {
		walkFault(c, &fs.Pending[i])
	}
	for i := range codec.Slice(c, &fs.Nodes, 32) {
		n := &fs.Nodes[i]
		c.Duration(&n.DownUntil)
		c.Duration(&n.BlackoutUntil)
		c.Duration(&n.ActFailUntil)
		c.Duration(&n.SlowUntil)
	}
}

func walkFault(c *codec.Coder, f *fault.Fault) {
	c.Duration(&f.At)
	codec.Enum(c, &f.Kind)
	c.Int(&f.Node)
	c.Duration(&f.Duration)
	c.F64(&f.Factor)
	c.String(&f.Workload)
}

func walkTracker(c *codec.Coder, st *slo.TrackerState) {
	c.Int(&st.Epochs)
	c.I64(&st.Violations)
	for i := range st.Counts {
		c.I64(&st.Counts[i])
	}
	c.Bytes(&st.Ring)
	c.Bool(&st.Page)
	c.Bool(&st.Ticket)
}
