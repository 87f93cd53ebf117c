package main

import (
	"fmt"
	"time"

	"distws/internal/core"
	"distws/internal/serve"
	"distws/internal/sim"
	"distws/internal/topology"
	"distws/internal/uts"
	"distws/internal/victim"
)

// Pinned node counts of the closed workloads' trees. The benchmark's
// test re-derives both by sequential enumeration.
const (
	hSmallNodes = 905_690
	hSweepNodes = 5_912_165
)

// workload is one named benchmark input. Every workload is a closed
// loop with one caller: the benchmark calls core.Run, waits for it,
// then calls again. README.md gives each workload's reason.
type workload struct {
	name string
	// config builds the simulation for a seed.
	config func(seed uint64) core.Config
	// pinned is the closed workload's exact node count (0 for serving,
	// whose expected count depends on the seed's arrivals).
	pinned uint64
}

var workloads = []workload{
	{
		// Node expansion dominates; the bypass for victim, comm and
		// sharding changes.
		name:   "closed-compute",
		config: func(seed uint64) core.Config { return closedConfig("H-SWEEP", 128, core.StealHalf, seed, 0) },
		pinned: hSweepNodes,
	},
	{
		// The ROADMAP's reference config: steals and victim sampling
		// dominate.
		name:   "closed-steal",
		config: func(seed uint64) core.Config { return closedConfig("H-SMALL", 2048, core.StealOne, seed, 0) },
		pinned: hSmallNodes,
	},
	{
		// The only workload that runs internal/sim/par.
		name:   "closed-steal-par2",
		config: func(seed uint64) core.Config { return closedConfig("H-SMALL", 2048, core.StealOne, seed, 2) },
		pinned: hSmallNodes,
	},
	{
		// The only workload that runs serve.Compile, the open detector,
		// per-job accounting and event recording.
		name:   "open-serve",
		config: serveConfig,
	},
}

func lookupWorkload(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

func closedConfig(tree string, ranks int, steal core.StealPolicy, seed uint64, shards int) core.Config {
	return core.Config{
		Tree:      uts.MustPreset(tree).Params,
		Ranks:     ranks,
		Placement: topology.OnePerNode,
		Selector:  victim.NewDistanceSkewed,
		Steal:     steal,
		ChunkSize: 4,
		Seed:      seed,
		Shards:    shards,
	}
}

// serveHorizon sizes open-serve so one run takes about as long as a
// closed-steal run.
const serveHorizon = 200 * sim.Millisecond

// serveSpec is the scenario matrix's two-tenant plan (a gold tenant
// behind a token bucket, so rejections are nonzero, and a best-effort
// silver tenant, both on small HashFast binomial trees) at an offered
// load high enough to keep 256 ranks stealing.
func serveSpec() *serve.Spec {
	tree := uts.Params{
		Type:        uts.Binomial,
		B0:          20,
		NonLeafBF:   2,
		NonLeafProb: 0.45,
		RootSeed:    31,
		Hash:        uts.HashFast,
	}
	return &serve.Spec{
		Horizon:   serveHorizon,
		Placement: serve.PlaceRR,
		Tenants: []serve.Tenant{
			{
				Name:    "gold",
				Arrival: serve.ArrivalSpec{Process: serve.ProcPoisson, Mean: 20 * sim.Microsecond},
				Admit:   serve.Bucket{Rate: 30000, Burst: 4},
				SLO:     serve.SLO{Class: "gold", Target: 10 * sim.Millisecond},
				Work:    serve.Workload{Kind: serve.WorkUTS, Tree: tree},
			},
			{
				Name:    "silver",
				Arrival: serve.ArrivalSpec{Process: serve.ProcGamma, Mean: 40 * sim.Microsecond, Shape: 2},
				SLO:     serve.SLO{Class: "best-effort"},
				Work:    serve.Workload{Kind: serve.WorkUTS, Tree: tree},
			},
		},
	}
}

func serveConfig(seed uint64) core.Config {
	return core.Config{
		Ranks:         256,
		Placement:     topology.OnePerNode,
		Selector:      victim.NewDistanceSkewed,
		Steal:         core.StealOne,
		ChunkSize:     4,
		Seed:          seed,
		Serve:         serveSpec(),
		CollectEvents: true,
	}
}

// expectedNodes returns the exact node count a correct run of cfg
// must report, and the host seconds the sequential enumeration behind
// it took (0 when the count is pinned). A serving run's count is the
// sum of its admitted jobs' trees, enumerated one by one.
func (w *workload) expectedNodes(cfg core.Config) (nodes uint64, enumSeconds float64, err error) {
	if cfg.Serve == nil {
		return w.pinned, 0, nil
	}
	return serveNodes(cfg)
}

// serveNodes enumerates every admitted job of cfg's compiled schedule,
// timing the enumeration alone.
func serveNodes(cfg core.Config) (uint64, float64, error) {
	nodeCost := cfg.NodeCost
	if nodeCost == 0 {
		nodeCost = core.DefaultNodeCost
	}
	sched, err := serve.Compile(cfg.Serve, cfg.Ranks, cfg.Seed, nodeCost)
	if err != nil {
		return 0, 0, err
	}
	var total uint64
	t0 := time.Now()
	for i := range sched.Jobs {
		if !sched.Jobs[i].Admitted {
			continue
		}
		c, err := uts.CountSequential(sched.Jobs[i].Tree)
		if err != nil {
			return 0, 0, err
		}
		total += c.Nodes
	}
	return total, time.Since(t0).Seconds(), nil
}

// check returns why a run failed, or nil for a correct run.
func check(res *core.Result, runErr error, expect uint64) error {
	switch {
	case runErr != nil:
		return runErr
	case res.Premature:
		return fmt.Errorf("premature termination")
	case res.Nodes != res.NodesGenerated:
		return fmt.Errorf("nodes %d != generated %d", res.Nodes, res.NodesGenerated)
	case res.Nodes != expect:
		return fmt.Errorf("nodes %d, want %d", res.Nodes, expect)
	}
	if s := res.Serve; s != nil {
		if s.Arrived != s.Admitted+s.Rejected {
			return fmt.Errorf("serve: arrived %d != admitted %d + rejected %d", s.Arrived, s.Admitted, s.Rejected)
		}
		if s.Done != s.Admitted {
			return fmt.Errorf("serve: done %d != admitted %d", s.Done, s.Admitted)
		}
	}
	return nil
}
