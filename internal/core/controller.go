package core

import (
	"sync"
	"time"
)

// Env is everything the controller monitors and actuates. The simulated
// machine satisfies it directly.
type Env interface {
	// Latency-critical workload monitors.
	TailLatency(window time.Duration) (time.Duration, bool)
	Load() float64
	SLO() time.Duration
	GuaranteedGHz() float64

	// BE lifecycle and benefit monitor.
	EnableBE()
	DisableBE()
	BEEnabled() bool
	BERate() float64

	// Core allocation (cgroups cpuset).
	BECoreCount() int
	SetBECores(n int)
	MaxBECores() int

	// LLC allocation (Intel CAT).
	BEWayCount() int
	SetBEWays(n int)
	TotalWays() int

	// DRAM bandwidth monitors (performance counters). DRAMMaxSocketFrac
	// is the utilisation of the busiest memory controller; a single
	// saturated socket is as dangerous as machine-wide saturation (§4.3
	// reads per-controller registers).
	DRAMTotalGBs() float64
	DRAMMaxSocketFrac() float64
	BEDRAMCounterGBs() float64
	DRAMPeakGBs() float64

	// Power monitors and per-core DVFS.
	MaxSocketPowerFrac() float64
	LCFreqGHz() float64
	LowerBEFreq()
	RaiseBEFreq()

	// Network monitors and HTB egress limits.
	LCTxGBs() float64
	LinkGBs() float64
	SetBETxCeil(gbs float64)
}

// TailHistoryKeeper is implemented by an Env that stores the history
// TailLatency averages over (the simulated machine does; a real host's
// latency monitor and test fakes need not). New tells it the longest
// window this controller will ever ask for, so it can keep exactly that
// much and nothing older.
type TailHistoryKeeper interface {
	KeepTailHistory(window time.Duration)
}

// DRAMModel is the offline model of the LC workload's DRAM bandwidth as a
// function of load and allocation (§4.2: current hardware cannot attribute
// bandwidth per core, so Heracles carries this one piece of offline
// information; §4.3 uses it as LcBwModel()).
type DRAMModel interface {
	LCDemandGBs(load float64, lcCores, lcWays int) float64
}

// Config carries the controller's tunables; the defaults are the constants
// of Algorithms 1-4.
type Config struct {
	PollInterval      time.Duration // top-level poll (15 s)
	CorePollInterval  time.Duration // core & memory subcontroller (2 s)
	PowerPollInterval time.Duration // power subcontroller (2 s)
	NetPollInterval   time.Duration // network subcontroller (1 s)

	LoadDisable float64       // disable BE above this LC load (0.85)
	LoadEnable  float64       // re-enable BE below this LC load (0.80)
	SlackGrow   float64       // BE may grow only above this slack (0.10)
	SlackPanic  float64       // shrink BE cores below this slack (0.05)
	Cooldown    time.Duration // BE off after an SLO violation (5 min)

	DRAMLimitFrac float64 // DRAM saturation threshold (0.90 of peak)
	PowerLimit    float64 // socket power threshold (0.90 of TDP)

	NetLinkHeadroom float64 // 0.05 of link rate
	NetLCHeadroom   float64 // 0.10 of LC bandwidth

	InitialBECores   int     // BE cores granted on enable (1)
	InitialWaysFrac  float64 // BE LLC fraction on enable (0.10)
	KeepBECores      int     // cores BE keeps after a slack panic (2)
	BenefitThreshold float64 // min relative BE rate gain to keep growing cache

	// Stale-telemetry degradation: when the latency monitor stops
	// returning data (a blackout, a wedged collector), the controller
	// must not keep steering on its last belief. After StaleGrace
	// without telemetry it latches cautious (growth disallowed); after
	// StaleEmergency it disables BE outright until data returns. Zero
	// selects 2x and 4x PollInterval respectively.
	StaleGrace     time.Duration
	StaleEmergency time.Duration
}

// DefaultConfig returns the constants used in the paper.
func DefaultConfig() Config {
	return Config{
		PollInterval:      15 * time.Second,
		CorePollInterval:  2 * time.Second,
		PowerPollInterval: 2 * time.Second,
		NetPollInterval:   time.Second,
		LoadDisable:       0.85,
		LoadEnable:        0.80,
		SlackGrow:         0.10,
		SlackPanic:        0.05,
		Cooldown:          5 * time.Minute,
		DRAMLimitFrac:     0.90,
		PowerLimit:        0.90,
		NetLinkHeadroom:   0.05,
		NetLCHeadroom:     0.10,
		InitialBECores:    1,
		InitialWaysFrac:   0.10,
		KeepBECores:       2,
		BenefitThreshold:  0.01,
	}
}

// StaleState is the telemetry-freshness latch of the graceful-degradation
// path: StaleOK while data flows, StaleCautious after StaleGrace without
// it (growth disallowed), StaleEmergency after StaleEmergency (BE
// disabled until telemetry returns).
type StaleState int

const (
	// StaleOK means telemetry is fresh.
	StaleOK StaleState = iota
	// StaleCautious latches growth off while telemetry is missing.
	StaleCautious
	// StaleEmergency has disabled BE for want of telemetry.
	StaleEmergency
)

// String names the latch.
func (s StaleState) String() string {
	switch s {
	case StaleCautious:
		return "cautious"
	case StaleEmergency:
		return "emergency"
	default:
		return "ok"
	}
}

// GrowState is the core & memory subcontroller's gradient-descent phase.
type GrowState int

const (
	// GrowLLC grows the BE cache partition one way at a time.
	GrowLLC GrowState = iota
	// GrowCores reassigns cores from the LC job to BE tasks.
	GrowCores
)

// String names the phase.
func (s GrowState) String() string {
	if s == GrowLLC {
		return "GROW_LLC"
	}
	return "GROW_CORES"
}

// Event records one controller decision for observability and tests.
type Event struct {
	At     time.Duration
	Loop   string // "top", "core", "power", "net"
	Action string
	Detail string
}

// Controller is the Heracles controller instance for one server.
type Controller struct {
	cfg   Config
	env   Env
	model DRAMModel

	// Top-level state.
	enabled      bool
	growAllowed  bool
	cooldownTill time.Duration
	slack        float64
	latency      time.Duration

	// Telemetry-freshness latch (graceful degradation under blackouts).
	lastTelemetry time.Duration
	staleState    StaleState

	// Core & memory subcontroller state.
	state        GrowState
	lastBW       float64
	bwDerivative float64
	pendingWays  int           // ways before the last cache growth, for rollback
	pendingCheck bool          // a cache growth awaits its derivative check
	rateBefore   float64       // BE rate before the last cache growth
	lastGrow     time.Duration // time of the last core growth (for damping)
	coreHold     coreHoldKind  // last emitted hold-cores reason (edge-triggered trace)

	// Scheduling.
	nextTop, nextCore, nextPower, nextNet time.Duration

	// Decision trace. The mutex makes subscription safe for concurrent
	// consumers: the control plane attaches handlers from HTTP goroutines
	// while Step runs in the instance's driver goroutine.
	traceMu sync.Mutex
	traces  []func(Event)
}

// New returns a controller bound to env. model may be nil, in which case
// the controller treats LC bandwidth as total minus the BE counters (what
// §4.2 says becomes possible once per-core DRAM accounting exists). An env
// that keeps its own tail-latency history (TailHistoryKeeper) is told here
// how far back this controller's polls reach.
func New(env Env, model DRAMModel, cfg Config) *Controller {
	if cfg.StaleGrace <= 0 {
		cfg.StaleGrace = 2 * cfg.PollInterval
	}
	if cfg.StaleEmergency <= 0 {
		cfg.StaleEmergency = 4 * cfg.PollInterval
	}
	if k, ok := env.(TailHistoryKeeper); ok {
		// The two TailLatency polls: topLevel's and coreMemory's.
		k.KeepTailHistory(max(cfg.PollInterval, 2*cfg.CorePollInterval))
	}
	c := &Controller{cfg: cfg, env: env, model: model, enabled: false}
	return c
}

// OnEvent installs a decision-trace callback. Handlers accumulate: every
// installed callback sees every subsequent event, so multiple consumers
// (a log writer, an SSE hub, a metrics counter) can subscribe to the same
// controller. OnEvent may be called concurrently with Step; the handler
// itself is invoked from the goroutine driving Step.
func (c *Controller) OnEvent(fn func(Event)) {
	c.traceMu.Lock()
	c.traces = append(c.traces, fn)
	c.traceMu.Unlock()
}

// BEEnabled reports whether the controller currently allows BE execution.
func (c *Controller) BEEnabled() bool { return c.enabled }

// TelemetryState returns the stale-telemetry latch.
func (c *Controller) TelemetryState() StaleState { return c.staleState }

func (c *Controller) emit(at time.Duration, loop, action, detail string) {
	e := Event{At: at, Loop: loop, Action: action, Detail: detail}
	c.traceMu.Lock()
	// Snapshot the handler list head under the lock; handlers are only
	// ever appended, so iterating the snapshot outside the lock is safe
	// and keeps handler code free to call back into the controller.
	traces := c.traces
	c.traceMu.Unlock()
	for _, fn := range traces {
		fn(e)
	}
}

// Step runs every control loop that is due at simulated time now. Callers
// invoke it once per machine epoch.
func (c *Controller) Step(now time.Duration) {
	if now >= c.nextTop {
		c.topLevel(now)
		c.nextTop = now + c.cfg.PollInterval
	}
	if now >= c.nextCore {
		c.coreMemory(now)
		c.nextCore = now + c.cfg.CorePollInterval
	}
	if now >= c.nextPower {
		c.power(now)
		c.nextPower = now + c.cfg.PowerPollInterval
	}
	if now >= c.nextNet {
		c.network(now)
		c.nextNet = now + c.cfg.NetPollInterval
	}
}
