package main

import (
	"bytes"
	"fmt"
	"reflect"
	"runtime"
	"runtime/pprof"
	"sort"
	"syscall"
	"time"

	"distws/internal/comm"
	"distws/internal/core"
	"distws/internal/serve"
	"distws/internal/term"
	"distws/internal/uts"
)

const (
	// minIterations is the fewest timed core.Run calls a run reports a
	// median over, however long they take.
	minIterations = 3
	// profileHz is the traced run's CPU sampling rate, and
	// profileSamples the sample count it collects at least: with 2000
	// samples every layer share of 5% or more rests on at least 100
	// samples.
	profileHz      = 500
	profileSamples = 2000
	// setupOnlyCalls is the number of extra set-up-only core.Run calls
	// an end-to-end run makes for setup_s.
	setupOnlyCalls = 100
	// maxTraced caps a traced run's host time (the benchmark must exit
	// within three minutes).
	maxTraced = 120 * time.Second
)

// timedRun is one core.Run call.
type timedRun struct {
	res     *core.Result
	start   time.Time
	seconds float64
}

// runOnce calls core.Run on a freshly collected heap and checks the
// result.
func runOnce(cfg core.Config, expect uint64) (timedRun, error) {
	runtime.GC()
	t0 := time.Now()
	res, err := core.Run(cfg)
	tr := timedRun{res, t0, time.Since(t0).Seconds()}
	return tr, check(res, err, expect)
}

// measureEndToEnd runs the workload untraced for the given host
// seconds after one warm-up call, and reports medians over the calls.
func measureEndToEnd(w *workload, seed uint64, seconds int) (*report, error) {
	cfg := w.config(seed)
	expect, _, err := w.expectedNodes(cfg)
	if err != nil {
		return nil, err
	}
	rep := &report{workload: w.name}
	base := cfg.Selector
	var runS, setupS []float64
	var nodes uint64
	var start time.Time
	for i := 0; ; i++ {
		var p setupProbe
		c := cfg
		c.Selector = p.wrap(base)
		tr, err := runOnce(c, expect)
		ok := rep.record(err)
		if i == 0 {
			// Warm-up: the first call pays for heap growth and page
			// faults that later calls reuse.
			start = time.Now()
			continue
		}
		if ok {
			nodes = tr.res.Nodes
			runS = append(runS, tr.seconds)
			setupS = append(setupS, p.first.Sub(tr.start).Seconds())
		}
		if i >= minIterations && time.Since(start) >= time.Duration(seconds)*time.Second {
			break
		}
	}
	if len(runS) == 0 {
		return rep, nil
	}
	for i := 0; i < setupOnlyCalls; i++ {
		s, err := setupOnly(cfg)
		if err != nil {
			return nil, err
		}
		setupS = append(setupS, s)
	}
	run := median(runS)
	rep.note("run_s: median of %d runs, min %.4f, max %.4f", len(runS), minOf(runS), maxOf(runS))
	rep.note("setup_s: median of %d set-ups, min %.6f, max %.6f", len(setupS), minOf(setupS), maxOf(setupS))
	rep.add("run_s", "s", run)
	rep.add("nodes_per_s", "nodes/s", float64(nodes)/run)
	rep.add("setup_s", "s", median(setupS))
	rep.add("peak_rss_mb", "MB", peakRSSMB())
	return rep, nil
}

// setupOnly times one core.Run set-up: from entering core.Run to the
// first victim request, where the probe stops the run.
func setupOnly(cfg core.Config) (seconds float64, err error) {
	p := setupProbe{stop: true}
	c := cfg
	c.Selector = p.wrap(cfg.Selector)
	runtime.GC()
	t0 := time.Now()
	defer func() {
		if r := recover(); r != nil {
			if r != errSetupDone {
				panic(r)
			}
			seconds = p.first.Sub(t0).Seconds()
		}
	}()
	_, err = core.Run(c)
	return 0, fmt.Errorf("set-up run ended without a victim request: %v", err)
}

// tracedSample holds what one probed core.Run call measured.
type tracedSample struct {
	seconds     float64
	factory     float64
	nextCalls   uint64
	nextS       float64
	termCalls   uint64
	termS       float64
	gcCycles    float64
	allocMB     float64
	busyMax     float64
	busySum     float64
	imbalance   float64
	barrierWait float64
	merge       float64
}

// tracedRun calls core.Run with every probe attached and the CPU
// profiler on. It returns the result and its profile.
func tracedRun(cfg core.Config) (*core.Result, tracedSample, []byte, error) {
	var vp victimProbe
	var tp termProbe
	c := cfg
	c.Selector = vp.wrap(cfg.Selector)
	det := cfg.Detector
	if det == nil {
		det = term.NewSafra
	}
	c.Detector = tp.wrap(det)
	var wp *wallProbe
	if cfg.Shards > 1 {
		wp = newWallProbe(cfg.Shards)
		c.ParWallProbe = wp
		c.ParProfile = true
	}
	var prof bytes.Buffer
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	// StartCPUProfile keeps a rate set before it (and says so on
	// standard error): the default 100 Hz would need a 20 s profile.
	runtime.SetCPUProfileRate(profileHz)
	if err := pprof.StartCPUProfile(&prof); err != nil {
		runtime.SetCPUProfileRate(0)
		return nil, tracedSample{}, nil, err
	}
	t0 := time.Now()
	res, err := core.Run(c)
	d := time.Since(t0).Seconds()
	pprof.StopCPUProfile()
	runtime.ReadMemStats(&m1)

	s := tracedSample{
		seconds:  d,
		factory:  vp.factory.Seconds(),
		gcCycles: float64(m1.NumGC - m0.NumGC),
		allocMB:  float64(m1.TotalAlloc-m0.TotalAlloc) / 1e6,
	}
	calls, dur := sumSlots(vp.slots)
	s.nextCalls, s.nextS = calls, dur.Seconds()
	calls, dur = sumSlots(tp.slots)
	s.termCalls, s.termS = calls, dur.Seconds()
	if wp != nil {
		var busyMax, busySum, wait time.Duration
		for sh := 0; sh < cfg.Shards; sh++ {
			b := wp.ShardBusy(sh)
			busyMax = max(busyMax, b)
			busySum += b
			wait += wp.ShardWait(sh)
		}
		s.busyMax, s.busySum = busyMax.Seconds(), busySum.Seconds()
		if busySum > 0 {
			s.imbalance = float64(busyMax) * float64(cfg.Shards) / float64(busySum)
		}
		s.barrierWait, s.merge = wait.Seconds(), wp.merge.Seconds()
	}
	return res, s, prof.Bytes(), err
}

// measureLayers alternates untraced and probed core.Run calls until
// the given host seconds have passed and the CPU profile holds at
// least minSamples samples, and reports the per-layer metrics. On a
// sharded workload it also times the sequential run of the same
// config in the same loop, for par.speedup.
func measureLayers(w *workload, seed uint64, seconds int, minSamples int64) (*report, error) {
	cfg := w.config(seed)
	expect, enumS, err := w.expectedNodes(cfg)
	if err != nil {
		return nil, err
	}
	rep := &report{workload: w.name}
	var seqCfg *core.Config
	if cfg.Shards > 1 {
		c := cfg
		c.Shards = 0
		seqCfg = &c
	}

	var (
		untracedS, seqS []float64
		samples         []tracedSample
		layerCounts     = map[string]int64{}
		totalSamples    int64
		first, probed   *core.Result
		samples0        tracedSample
		seqMatch        = true
	)
	start := time.Now()
	for i := 0; ; i++ {
		elapsed := time.Since(start)
		if elapsed >= maxTraced {
			break
		}
		if len(samples) >= 2 && totalSamples >= minSamples && elapsed >= time.Duration(seconds)*time.Second {
			break
		}
		u, err := runOnce(cfg, expect)
		if err == nil && first != nil {
			err = sameResult(first, u.res, "untraced run")
		}
		if rep.record(err) {
			if first == nil {
				// Kept for comparison only: dropping the event log keeps
				// it from inflating the heap the later calls run beside.
				first = u.res
				first.Trace = nil
			}
			if i > 0 {
				untracedS = append(untracedS, u.seconds)
			}
		}
		if seqCfg != nil {
			sq, err := runOnce(*seqCfg, expect)
			if rep.record(err) {
				if i > 0 {
					seqS = append(seqS, sq.seconds)
				}
				if first != nil && sameResult(first, sq.res, "") != nil {
					seqMatch = false
				}
			}
		}

		res, s, prof, runErr := tracedRun(cfg)
		err = check(res, runErr, expect)
		if err == nil && first != nil {
			err = sameResult(first, res, "probed run")
		}
		if err == nil && probed != nil && (s.nextCalls != samples0.nextCalls || s.termCalls != samples0.termCalls) {
			err = fmt.Errorf("probed run counted %d/%d selector/detector calls, the first one %d/%d",
				s.nextCalls, s.termCalls, samples0.nextCalls, samples0.termCalls)
		}
		if !rep.record(err) {
			continue
		}
		if probed == nil {
			probed, samples0 = res, s
			probed.Trace = nil
		} else {
			// The first probed call warms the probes' own allocations.
			samples = append(samples, s)
		}
		stacks, err := parseProfile(prof)
		if err != nil {
			return nil, err
		}
		for _, st := range stacks {
			layerCounts[attribute(st.frames)] += st.count
			totalSamples += st.count
		}
	}
	if len(samples) == 0 || len(untracedS) == 0 {
		return nil, fmt.Errorf("too few correct runs (%d of %d failed)", rep.failed, rep.attempted)
	}

	col := func(f func(tracedSample) float64) float64 {
		v := make([]float64, len(samples))
		for i, s := range samples {
			v[i] = f(s)
		}
		return median(v)
	}
	res := first
	share := func(layer string) float64 {
		if totalSamples == 0 {
			return 0
		}
		return float64(layerCounts[layer]) / float64(totalSamples)
	}
	rep.note("probed runs: %d, untraced runs: %d, CPU samples: %d at %d Hz", len(samples), len(untracedS), totalSamples, profileHz)

	// sim: the event kernel.
	rep.add("sim.cpu_share", "share", share("sim"))
	rep.add("sim.makespan_ns", "virtual_ns", float64(res.Makespan))

	// uts: tree expansion, and the workload's trees enumerated alone.
	if cfg.Serve == nil {
		t0 := time.Now()
		c, err := uts.CountSequential(cfg.Tree)
		enumS = time.Since(t0).Seconds()
		if err != nil || c.Nodes != w.pinned {
			return nil, fmt.Errorf("sequential enumeration: %d nodes, want %d (%v)", c.Nodes, w.pinned, err)
		}
	}
	rep.add("uts.nodes", "count", float64(res.Nodes))
	rep.add("uts.cpu_share", "share", share("uts"))
	rep.add("uts.enum_nodes_per_s", "nodes/s", float64(expect)/enumS)

	// victim: selection, including internal/sample's alias tables.
	nextCalls := samples0.nextCalls
	nextS := col(func(s tracedSample) float64 { return s.nextS })
	rep.add("victim.cpu_share", "share", share("victim"))
	rep.add("victim.next_calls", "count", float64(nextCalls))
	rep.add("victim.next_s", "s", nextS)
	rep.add("victim.next_ns", "ns", ratio(nextS*1e9, float64(nextCalls)))
	rep.add("victim.factory_s", "s", col(func(s tracedSample) float64 { return s.factory }))
	rep.add("victim.steal_success_ratio", "ratio", ratio(float64(res.SuccessfulSteals), float64(res.StealRequests)))

	// comm: the simulated network.
	var bytesSent uint64
	for _, b := range res.Comm.Bytes {
		bytesSent += b
	}
	rep.add("comm.cpu_share", "share", share("comm"))
	rep.add("comm.msgs", "count", float64(res.Comm.TotalSent()))
	rep.add("comm.msgs.steal_request", "count", float64(res.Comm.SentByTag(comm.TagStealRequest)))
	rep.add("comm.msgs.work", "count", float64(res.Comm.SentByTag(comm.TagWork)))
	rep.add("comm.msgs.no_work", "count", float64(res.Comm.SentByTag(comm.TagNoWork)))
	rep.add("comm.msgs.token", "count", float64(res.Comm.SentByTag(comm.TagToken)))
	rep.add("comm.bytes", "bytes", float64(bytesSent))

	rep.add("topology.cpu_share", "share", share("topology"))

	// term: absent (zero) on open-serve, where the open detector
	// replaces Config.Detector.
	rep.add("term.cpu_share", "share", share("term"))
	rep.add("term.calls", "count", float64(samples0.termCalls))
	rep.addTableOnly("term.s", "s", col(func(s tracedSample) float64 { return s.termS }))
	rep.add("term.rounds", "count", float64(res.TerminationRounds))

	rep.add("workstack.cpu_share", "share", share("workstack"))
	rep.add("workstack.chunks_moved", "count", float64(res.ChunksTransferred))

	rep.add("core.cpu_share", "share", share("core"))

	// par: zero except on the sharded workload.
	rep.add("par.cpu_share", "share", share("par"))
	var parWindows, parStaged uint64
	var parSerialized float64
	if led := probed.Par; led != nil {
		t := led.Totals()
		parWindows, parStaged, parSerialized = t.Windows, t.Staged, led.SerializedShare()
	}
	rep.add("par.windows", "count", float64(parWindows))
	rep.add("par.serialized_share", "share", parSerialized)
	rep.add("par.staged", "count", float64(parStaged))
	rep.addTableOnly("par.busy_max_s", "s", col(func(s tracedSample) float64 { return s.busyMax }))
	rep.addTableOnly("par.busy_sum_s", "s", col(func(s tracedSample) float64 { return s.busySum }))
	rep.add("par.imbalance", "ratio", col(func(s tracedSample) float64 { return s.imbalance }))
	rep.addTableOnly("par.barrier_wait_s", "s", col(func(s tracedSample) float64 { return s.barrierWait }))
	rep.addTableOnly("par.merge_s", "s", col(func(s tracedSample) float64 { return s.merge }))
	speedup := 0.0
	if len(seqS) > 0 {
		speedup = median(seqS) / median(untracedS)
		rep.note("sequential runs: %d, result identical to the sharded one: %v", len(seqS), seqMatch)
	}
	rep.add("par.speedup", "ratio", speedup)

	// serve: zero on the closed workloads.
	compileS := 0.0
	var st serve.Stats
	if cfg.Serve != nil {
		compileS = serveCompileSeconds(cfg)
		st = *res.Serve
	}
	var p99 float64
	for _, t := range st.Tenants {
		p99 = max(p99, float64(t.SojournP99))
	}
	rep.add("serve.cpu_share", "share", share("serve"))
	rep.addTableOnly("serve.compile_s", "s", compileS)
	rep.add("serve.arrived", "count", float64(st.Arrived))
	rep.add("serve.admitted", "count", float64(st.Admitted))
	rep.add("serve.rejected", "count", float64(st.Rejected))
	rep.add("serve.done", "count", float64(st.Done))
	rep.addTableOnly("serve.sojourn_p99_ns", "virtual_ns", p99)
	rep.add("serve.jain", "ratio", st.Jain)

	rep.add("obs.cpu_share", "share", share("obs"))

	// Go runtime and the benchmark's own probes.
	rep.add("gc.cpu_share", "share", share("gc"))
	rep.add("gc.cycles", "count", col(func(s tracedSample) float64 { return s.gcCycles }))
	rep.add("alloc_mb", "MB", col(func(s tracedSample) float64 { return s.allocMB }))
	rep.add("probe.cpu_share", "share", share("probe"))
	rep.add("other.cpu_share", "share", share("other"))
	rep.add("profile.samples", "count", float64(totalSamples))
	rep.add("trace.overhead", "ratio", col(func(s tracedSample) float64 { return s.seconds })/median(untracedS))
	return rep, nil
}

// sameResult reports how res differs from first, ignoring the event
// log and the window ledger. Both come from one (Config, seed), so
// every simulated statistic must be identical.
func sameResult(first, res *core.Result, what string) error {
	a, b := *first, *res
	a.Trace, a.Par, b.Trace, b.Par = nil, nil, nil, nil
	if !reflect.DeepEqual(a, b) {
		return fmt.Errorf("%s: simulated result differs from the first run's", what)
	}
	return nil
}

// serveCompileSeconds times serve.Compile of cfg's schedule alone: the
// median of five calls.
func serveCompileSeconds(cfg core.Config) float64 {
	nodeCost := cfg.NodeCost
	if nodeCost == 0 {
		nodeCost = core.DefaultNodeCost
	}
	v := make([]float64, 5)
	for i := range v {
		t0 := time.Now()
		if _, err := serve.Compile(cfg.Serve, cfg.Ranks, cfg.Seed, nodeCost); err != nil {
			return 0
		}
		v[i] = time.Since(t0).Seconds()
	}
	return median(v)
}

// peakRSSMB returns the process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / 1e6 // Linux reports KiB
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func minOf(v []float64) float64 {
	m := v[0]
	for _, x := range v {
		m = min(m, x)
	}
	return m
}

func maxOf(v []float64) float64 {
	m := v[0]
	for _, x := range v {
		m = max(m, x)
	}
	return m
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
