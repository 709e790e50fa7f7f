package fleet

import (
	"fmt"
	"strings"
	"time"

	"heracles/internal/cluster"
	"heracles/internal/experiment"
	"heracles/internal/fault"
	"heracles/internal/hw"
	"heracles/internal/parallel"
	"heracles/internal/scenario"
	"heracles/internal/sched"
	"heracles/internal/sim"
	"heracles/internal/tco"
	"heracles/internal/workload"
)

// ClusterSpec describes one homogeneous slice of the fleet: Count
// identical clusters of the given hardware running the given LC workload
// through the given scenario.
type ClusterSpec struct {
	Name  string
	Count int // replicas of this spec (default 1)

	HW     hw.Config
	LC     string // LC workload name (default "websearch")
	Leaves int    // leaf servers per cluster (default 8)

	Scenario scenario.Scenario

	// Per-cluster knobs, forwarded to cluster.Config.
	LeafTargetFrac     float64
	Warmup             time.Duration
	DynamicLeafTargets bool

	// Jobs, when non-empty, attaches the best-effort job scheduler to
	// every Heracles run of this spec: the job stream replaces the static
	// brain/streetview split as the BE source, and the run's summary
	// carries goodput/queueing accounting. SchedPolicy names the
	// placement policy (default "slack-greedy"); RunPolicies overrides it
	// per comparison arm.
	Jobs        []sched.JobSpec
	SchedPolicy string

	// Faults is a deterministic fault schedule applied to every replica
	// of this spec. Both arms of each instance (baseline and Heracles,
	// and every policy arm) run the identical schedule, so resilience
	// differences are paired the same way load is.
	Faults []fault.Fault
}

// Config describes a fleet experiment.
type Config struct {
	Clusters []ClusterSpec
	Seed     uint64
	// Workers bounds how many cluster runs execute concurrently: 0
	// selects parallel.DefaultWorkers, 1 forces the sequential reference
	// run. Cluster instances are independent and leaf stepping inside
	// each run is sequential, so every worker count is bit-identical.
	Workers int
	// TCO carries the cost-model inputs; the zero value selects the
	// paper's Barroso parameters.
	TCO tco.Params
}

// Outcome is one cluster instance's paired baseline/Heracles result.
type Outcome struct {
	Name     string // spec name, or spec name + replica index when Count > 1
	Spec     int    // index into Config.Clusters
	Replica  int
	Baseline cluster.Summary
	Heracles cluster.Summary
}

// Aggregate reduces the fleet to the quantities §5.2-§5.3 report,
// averaged across cluster instances (violations are summed).
type Aggregate struct {
	MeanEMU      float64
	MinEMU       float64 // minimum across instances of the per-run minimum
	MeanRootFrac float64
	MaxRootFrac  float64 // worst 30-epoch window anywhere in the fleet
	Violations   int

	// Sched sums the job scheduler's accounting across instances (nil
	// when no instance ran one).
	Sched *sched.Accounting
}

// Result is a full fleet run.
type Result struct {
	Clusters []Outcome
	Baseline Aggregate
	Heracles Aggregate

	// TCO analysis: the fleet-wide EMU lift priced with the cost model.
	TCO         tco.Params
	BaselineTCO float64 // lifetime cluster TCO at the baseline utilisation
	HeraclesTCO float64 // lifetime cluster TCO at the Heracles utilisation
	// Gain is the relative throughput/TCO improvement from raising the
	// fleet's utilisation from baseline to Heracles levels.
	Gain float64
}

// instance is one expanded (spec, replica) pair.
type instance struct {
	spec    int
	replica int
}

// expand validates the specs (scenarios, scheduler policy names) and
// returns the shared per-generation labs plus the (spec, replica)
// instances.
func expand(cfg Config) (map[hw.Config]*experiment.Lab, []instance) {
	if len(cfg.Clusters) == 0 {
		panic("fleet: no cluster specs")
	}
	// One lab per distinct hardware config: hw.Config is comparable, so
	// replicas and same-generation specs share a calibration.
	labs := make(map[hw.Config]*experiment.Lab)
	for _, spec := range cfg.Clusters {
		if _, ok := labs[spec.HW]; !ok {
			labs[spec.HW] = experiment.NewLab(spec.HW)
		}
	}
	var instances []instance
	for si, spec := range cfg.Clusters {
		n := spec.Count
		if n <= 0 {
			n = 1
		}
		if err := spec.Scenario.Validate(); err != nil {
			panic(fmt.Sprintf("fleet: spec %q: %v", spec.Name, err))
		}
		leaves := spec.Leaves
		if leaves <= 0 {
			leaves = 8
		}
		for _, f := range spec.Faults {
			if err := f.Validate(leaves); err != nil {
				panic(fmt.Sprintf("fleet: spec %q: %v", spec.Name, err))
			}
		}
		if len(spec.Jobs) > 0 && spec.SchedPolicy != "" {
			if _, err := sched.PolicyByName(spec.SchedPolicy); err != nil {
				panic(fmt.Sprintf("fleet: spec %q: %v", spec.Name, err))
			}
		}
		for r := 0; r < n; r++ {
			instances = append(instances, instance{spec: si, replica: r})
		}
	}
	return labs, instances
}

// runInstance executes one cluster run of an instance. pairSeed is the
// instance's derived seed, shared by every arm (baseline, each policy) so
// comparisons are paired; policy overrides the spec's scheduler policy
// and applies only to Heracles runs of specs that carry Jobs.
func runInstance(cfg Config, inst instance, lab *experiment.Lab, pairSeed uint64, heracles bool, policy string) cluster.Summary {
	spec := cfg.Clusters[inst.spec]
	lcName := spec.LC
	if lcName == "" {
		lcName = "websearch"
	}
	leaves := spec.Leaves
	if leaves <= 0 {
		leaves = 8
	}
	ccfg := cluster.Config{
		Leaves:             leaves,
		Heracles:           heracles,
		HW:                 spec.HW,
		LC:                 lab.LC(lcName),
		Brain:              lab.BE("brain"),
		SView:              lab.BE("streetview"),
		Catalog:            catalogFor(lab, spec.Scenario),
		LeafTargetFrac:     spec.LeafTargetFrac,
		Warmup:             spec.Warmup,
		DynamicLeafTargets: spec.DynamicLeafTargets,
		Model:              lab.DRAMModel(lcName),
		// Every arm of an instance shares one derived seed, so the
		// baseline/Heracles and policy-vs-policy comparisons are paired.
		Seed:   pairSeed,
		Faults: spec.Faults,
	}
	if heracles && len(spec.Jobs) > 0 {
		if policy == "" {
			policy = spec.SchedPolicy
		}
		if policy == "" {
			policy = "slack-greedy"
		}
		pol, err := sched.PolicyByName(policy)
		if err != nil {
			panic(fmt.Sprintf("fleet: spec %q: %v", spec.Name, err))
		}
		// Calibrate the job workloads into the catalog so dispatches can
		// resolve them (jobs may reference workloads no event names).
		cat := ccfg.Catalog
		for _, js := range spec.Jobs {
			if js.Workload == "brain" || js.Workload == "streetview" {
				continue
			}
			if cat == nil {
				cat = make(map[string]*workload.BE)
			}
			if _, ok := cat[js.Workload]; !ok {
				cat[js.Workload] = lab.BE(js.Workload)
			}
		}
		ccfg.Catalog = cat
		ccfg.Sched = &sched.Config{Policy: pol, Jobs: spec.Jobs}
	}
	return cluster.RunScenario(ccfg, spec.Scenario).Summarize()
}

// Run executes every cluster instance of the fleet, baseline and
// Heracles, and aggregates the results. Workload calibration and the
// offline DRAM model are shared across instances with identical hardware
// (one Lab per distinct hw.Config, memoised behind sync.Once), so mixed
// fleets calibrate each generation exactly once.
func Run(cfg Config) Result {
	if cfg.TCO.Servers == 0 {
		cfg.TCO = tco.Barroso()
	}
	labs, instances := expand(cfg)

	// Every instance runs twice (baseline, Heracles); all 2N runs are
	// independent, so they share one flat fan-out. Unit 2i is instance
	// i's baseline, unit 2i+1 its Heracles run.
	summaries := parallel.Map(cfg.Workers, 2*len(instances), func(u int) cluster.Summary {
		inst := instances[u/2]
		lab := labs[cfg.Clusters[inst.spec].HW]
		seed := sim.DeriveRNG(cfg.Seed, uint64(u/2)).Uint64()
		return runInstance(cfg, inst, lab, seed, u%2 == 1, "")
	})

	res := Result{TCO: cfg.TCO}
	base := make([]cluster.Summary, len(instances))
	hera := make([]cluster.Summary, len(instances))
	for i, inst := range instances {
		spec := cfg.Clusters[inst.spec]
		name := spec.Name
		if n := spec.Count; n > 1 {
			name = fmt.Sprintf("%s/%d", spec.Name, inst.replica)
		}
		base[i], hera[i] = summaries[2*i], summaries[2*i+1]
		res.Clusters = append(res.Clusters, Outcome{
			Name:     name,
			Spec:     inst.spec,
			Replica:  inst.replica,
			Baseline: summaries[2*i],
			Heracles: summaries[2*i+1],
		})
	}
	res.Baseline = aggregate(base)
	res.Heracles = aggregate(hera)

	res.BaselineTCO = cfg.TCO.ClusterTCO(res.Baseline.MeanEMU)
	res.HeraclesTCO = cfg.TCO.ClusterTCO(res.Heracles.MeanEMU)
	res.Gain = cfg.TCO.ThroughputPerTCOGain(res.Baseline.MeanEMU, res.Heracles.MeanEMU)
	return res
}

// PolicyOutcome is one arm of a policy comparison: the fleet aggregate
// (with its scheduler accounting) under that placement policy, plus the
// throughput/TCO gain over the paired baseline.
type PolicyOutcome struct {
	Policy   string
	Heracles Aggregate
	Gain     float64
}

// PoliciesResult is a full policy-vs-policy fleet comparison.
type PoliciesResult struct {
	Baseline Aggregate
	Outcomes []PolicyOutcome
	TCO      tco.Params
}

// RunPolicies runs the fleet once per placement policy, paired: every
// arm of an instance (the shared baseline and one Heracles run per
// policy) draws the same derived seed, so goodput and SLO-compliance
// differences are attributable to placement quality alone. All
// (1 + len(policies)) x instances runs share one flat fan-out. Specs
// without Jobs contribute no scheduler accounting but still run.
func RunPolicies(cfg Config, policies []string) PoliciesResult {
	if len(policies) == 0 {
		panic("fleet: no policies to compare")
	}
	for _, p := range policies {
		if _, err := sched.PolicyByName(p); err != nil {
			panic("fleet: " + err.Error())
		}
	}
	if cfg.TCO.Servers == 0 {
		cfg.TCO = tco.Barroso()
	}
	labs, instances := expand(cfg)

	stride := 1 + len(policies)
	summaries := parallel.Map(cfg.Workers, stride*len(instances), func(u int) cluster.Summary {
		inst := instances[u/stride]
		lab := labs[cfg.Clusters[inst.spec].HW]
		seed := sim.DeriveRNG(cfg.Seed, uint64(u/stride)).Uint64()
		arm := u % stride
		if arm == 0 {
			return runInstance(cfg, inst, lab, seed, false, "")
		}
		return runInstance(cfg, inst, lab, seed, true, policies[arm-1])
	})

	pick := func(arm int) []cluster.Summary {
		out := make([]cluster.Summary, len(instances))
		for i := range instances {
			out[i] = summaries[stride*i+arm]
		}
		return out
	}
	res := PoliciesResult{Baseline: aggregate(pick(0)), TCO: cfg.TCO}
	for pi, p := range policies {
		agg := aggregate(pick(1 + pi))
		res.Outcomes = append(res.Outcomes, PolicyOutcome{
			Policy:   p,
			Heracles: agg,
			Gain:     cfg.TCO.ThroughputPerTCOGain(res.Baseline.MeanEMU, agg.MeanEMU),
		})
	}
	return res
}

// catalogFor calibrates every BE workload the scenario's arrival events
// reference, so mid-run churn can launch tasks beyond brain/streetview.
// Departure events match installed tasks by name and never consult the
// catalog, so they need no calibration here.
func catalogFor(lab *experiment.Lab, sc scenario.Scenario) map[string]*workload.BE {
	var cat map[string]*workload.BE
	for _, ev := range sc.Events {
		if ev.Kind != scenario.EventBEArrive {
			continue
		}
		if ev.Workload == "brain" || ev.Workload == "streetview" {
			continue
		}
		if cat == nil {
			cat = make(map[string]*workload.BE)
		}
		if _, ok := cat[ev.Workload]; !ok {
			cat[ev.Workload] = lab.BE(ev.Workload)
		}
	}
	return cat
}

// aggregate reduces summaries in instance order (float accumulation is
// identical for any worker count).
func aggregate(sums []cluster.Summary) Aggregate {
	a := Aggregate{MinEMU: 1e9}
	for _, s := range sums {
		a.MeanEMU += s.MeanEMU
		if s.MinEMU < a.MinEMU {
			a.MinEMU = s.MinEMU
		}
		a.MeanRootFrac += s.MeanRootFrac
		if s.MaxRootFrac > a.MaxRootFrac {
			a.MaxRootFrac = s.MaxRootFrac
		}
		a.Violations += s.Violations
		if s.Sched == nil {
			continue
		}
		if a.Sched == nil {
			a.Sched = &sched.Accounting{}
		}
		a.Sched.Add(*s.Sched)
	}
	n := float64(len(sums))
	if n > 0 {
		a.MeanEMU /= n
		a.MeanRootFrac /= n
	}
	return a
}

// String renders the fleet result as the table cmd/fleet prints.
func (r Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-18s %9s %9s %10s %10s %6s\n",
		"cluster", "baseEMU", "heraEMU", "baseWorst", "heraWorst", "viol")
	for _, o := range r.Clusters {
		fmt.Fprintf(&b, "%-18s %8.1f%% %8.1f%% %9.1f%% %9.1f%% %3d/%d\n",
			o.Name, 100*o.Baseline.MeanEMU, 100*o.Heracles.MeanEMU,
			100*o.Baseline.MaxRootFrac, 100*o.Heracles.MaxRootFrac,
			o.Baseline.Violations, o.Heracles.Violations)
	}
	fmt.Fprintf(&b, "%-18s %8.1f%% %8.1f%% %9.1f%% %9.1f%% %3d/%d\n",
		"fleet", 100*r.Baseline.MeanEMU, 100*r.Heracles.MeanEMU,
		100*r.Baseline.MaxRootFrac, 100*r.Heracles.MaxRootFrac,
		r.Baseline.Violations, r.Heracles.Violations)
	fmt.Fprintf(&b, "\nTCO (%d servers, $%.0f each): baseline $%.1fM -> heracles $%.1fM at %+.0f%% throughput/TCO\n",
		r.TCO.Servers, r.TCO.ServerCost,
		r.BaselineTCO/1e6, r.HeraclesTCO/1e6, 100*r.Gain)
	if s := r.Heracles.Sched; s != nil {
		b.WriteString("\n" + schedLine(s))
	}
	return b.String()
}

// schedLine renders one scheduler aggregate.
func schedLine(s *sched.Accounting) string {
	return fmt.Sprintf(
		"BE scheduler: %d/%d jobs completed (%d evictions, %d failed), goodput %.0f cpu-s vs %.0f wasted (%.1f%%), mean queue delay %v\n",
		s.Completed, s.Submitted, s.Evictions, s.Failed,
		s.GoodCPUSec, s.WastedCPUSec, 100*s.GoodputFrac(),
		s.MeanQueueDelay().Round(time.Second))
}

// String renders the policy comparison as the table cmd/fleet -policy
// prints.
func (r PoliciesResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "baseline: EMU %.1f%%, worst root window %.1f%%, %d violation(s)\n\n",
		100*r.Baseline.MeanEMU, 100*r.Baseline.MaxRootFrac, r.Baseline.Violations)
	fmt.Fprintf(&b, "%-14s %8s %10s %6s %12s %12s %9s %10s %12s\n",
		"policy", "EMU", "worstRoot", "viol", "good cpu-s", "wasted", "goodput", "completed", "queue delay")
	for _, o := range r.Outcomes {
		s := o.Heracles.Sched
		if s == nil {
			s = &sched.Accounting{}
		}
		fmt.Fprintf(&b, "%-14s %7.1f%% %9.1f%% %6d %12.0f %12.0f %8.1f%% %6d/%-3d %12v\n",
			o.Policy, 100*o.Heracles.MeanEMU, 100*o.Heracles.MaxRootFrac, o.Heracles.Violations,
			s.GoodCPUSec, s.WastedCPUSec, 100*s.GoodputFrac(),
			s.Completed, s.Submitted, s.MeanQueueDelay().Round(time.Second))
	}
	return b.String()
}
