package main

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"os"
	"reflect"
	"runtime/pprof"
	"sort"
	"testing"

	"distws/internal/core"
	"distws/internal/serve"
	"distws/internal/sim"
	"distws/internal/term"
	"distws/internal/uts"
)

// TestPinnedCounts re-derives the closed workloads' pinned node counts
// by sequential enumeration.
func TestPinnedCounts(t *testing.T) {
	for _, w := range workloads {
		cfg := w.config(5)
		if cfg.Serve != nil {
			continue
		}
		c, err := uts.CountSequential(cfg.Tree)
		if err != nil {
			t.Fatal(err)
		}
		if c.Nodes != w.pinned {
			t.Errorf("%s: tree has %d nodes, pinned %d", w.name, c.Nodes, w.pinned)
		}
	}
}

// tinyConfig is a small closed run that still steals a lot.
func tinyConfig(shards int) core.Config {
	cfg := closedConfig("H-TINY", 64, core.StealOne, 3, shards)
	return cfg
}

func tinyServe(shards int) core.Config {
	cfg := serveConfig(3)
	cfg.Ranks = 32
	cfg.Serve.Horizon = 2 * sim.Millisecond
	cfg.Shards = shards
	return cfg
}

// TestProbesDoNotPerturb runs each config plain and probed: the
// simulated results, the window ledger and the probes' counts must be
// identical, also when the engine calls the probes from two shards.
// Run it with -race to check the per-rank slots.
func TestProbesDoNotPerturb(t *testing.T) {
	cases := []struct {
		name string
		cfg  core.Config
	}{
		{"closed", tinyConfig(0)},
		{"closed-shards2", tinyConfig(2)},
		{"closed-shards3", tinyConfig(3)},
		{"serve", tinyServe(0)},
		{"serve-shards2", tinyServe(2)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			plain := tc.cfg
			plain.ParProfile = plain.Shards > 1
			want, err := core.Run(plain)
			if err != nil {
				t.Fatal(err)
			}
			var calls uint64
			for i := 0; i < 2; i++ {
				got, s, _, err := tracedRun(tc.cfg)
				if err != nil {
					t.Fatal(err)
				}
				if err := sameResult(want, got, "probed"); err != nil {
					t.Fatal(err)
				}
				if plain.ParProfile && (got.Par.Totals() != want.Par.Totals() || got.Par.SerializedShare() != want.Par.SerializedShare()) {
					t.Fatalf("window ledger moved: %+v, want %+v", got.Par.Totals(), want.Par.Totals())
				}
				// Every steal request follows exactly one Next call, so
				// a lost per-thief update would show here.
				if s.nextCalls != got.StealRequests {
					t.Fatalf("counted %d Next calls for %d steal requests", s.nextCalls, got.StealRequests)
				}
				if i == 1 && s.termCalls != calls {
					t.Fatalf("detector calls %d, then %d", calls, s.termCalls)
				}
				calls = s.termCalls
				if tc.cfg.Serve == nil && calls == 0 {
					t.Fatal("no detector calls counted")
				}
			}
		})
	}
}

// blind hides a detector's DecisionAware capability.
type blind struct{ term.Detector }

// TestDetectorProbeKeepsDecisionAware checks that the wrapper has the
// capability exactly when the wrapped detector has it: without it the
// sharded engine serializes every window.
func TestDetectorProbeKeepsDecisionAware(t *testing.T) {
	var p termProbe
	if _, ok := p.wrap(term.NewSafra)(4).(term.DecisionAware); !ok {
		t.Error("wrapped Safra lost DecisionAware")
	}
	blindSafra := func(n int) term.Detector { return blind{term.NewSafra(n)} }
	if _, ok := p.wrap(blindSafra)(4).(term.DecisionAware); ok {
		t.Error("wrapper added DecisionAware to a detector without it")
	}
	cfg := tinyConfig(2)
	cfg.Detector = blindSafra
	cfg.ParProfile = true
	want, err := core.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, _, _, err := tracedRun(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if want.Par.SerializedShare() != 1 || got.Par.SerializedShare() != 1 {
		t.Errorf("serialized share %v plain, %v probed; want 1", want.Par.SerializedShare(), got.Par.SerializedShare())
	}
}

func TestWallProbeSplitsBarrierTime(t *testing.T) {
	_, s, _, err := tracedRun(tinyConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	if s.busySum <= 0 || s.merge <= 0 || s.busyMax > s.busySum || s.imbalance < 1 {
		t.Errorf("busy max %v sum %v, merge %v, imbalance %v", s.busyMax, s.busySum, s.merge, s.imbalance)
	}
}

func TestCheck(t *testing.T) {
	ok := &core.Result{Nodes: 10, NodesGenerated: 10}
	if err := check(ok, nil, 10); err != nil {
		t.Fatal(err)
	}
	bad := []*core.Result{
		{Nodes: 9, NodesGenerated: 9},
		{Nodes: 10, NodesGenerated: 11},
		{Nodes: 10, NodesGenerated: 10, Premature: true},
		{Nodes: 10, NodesGenerated: 10, Serve: &serve.Stats{Arrived: 3, Admitted: 1, Rejected: 1, Done: 1}},
		{Nodes: 10, NodesGenerated: 10, Serve: &serve.Stats{Arrived: 3, Admitted: 2, Rejected: 1, Done: 1}},
	}
	for i, r := range bad {
		if check(r, nil, 10) == nil {
			t.Errorf("case %d: accepted %+v", i, r)
		}
	}
}

func TestSetupOnlyStopsAtFirstVictimRequest(t *testing.T) {
	for _, cfg := range []core.Config{tinyConfig(0), tinyConfig(2), tinyServe(0)} {
		s, err := setupOnly(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if s <= 0 {
			t.Errorf("set-up took %v s", s)
		}
	}
}

func TestAttribute(t *testing.T) {
	cases := []struct {
		frames []string
		want   string
	}{
		{[]string{"crypto/sha1.blockAMD64", "crypto/sha1.(*digest).Write", "distws/internal/uts.(*ChildGen).Child", "distws/internal/core.(*engine).startQuantum"}, "uts"},
		{[]string{"sort.Sort", "distws/internal/sim/par.(*ShardedKernel).injectStaged"}, "par"},
		{[]string{"runtime.mallocgc", "distws/internal/core.(*engine).sendSteal"}, "core"},
		{[]string{"distws/internal/rng.(*Xoshiro256).Next", "distws/internal/victim.(*distanceSkewed).Next"}, "victim"},
		{[]string{"distws/internal/sample.(*Discrete).Sample", "distws/internal/victim.(*distanceSkewed).Next"}, "victim"},
		{[]string{"distws/internal/obs/parprof.(*Ledger).Record"}, "obs"},
		{[]string{"distws/internal/trace.(*Recorder).Record"}, "obs"},
		{[]string{"time.Now", "main.(*timedSelector).Next", "distws/internal/core.(*engine).sendSteal"}, "probe"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "gc"},
		{[]string{"runtime.futex", "runtime.schedule"}, "other"},
	}
	for _, c := range cases {
		if got := attribute(c.frames); got != c.want {
			t.Errorf("attribute(%v) = %s, want %s", c.frames, got, c.want)
		}
	}
}

// encoder writes the protobuf fields the profile reader decodes.
type encoder struct{ b []byte }

func (e *encoder) varint(x uint64) {
	for x >= 0x80 {
		e.b = append(e.b, byte(x)|0x80)
		x >>= 7
	}
	e.b = append(e.b, byte(x))
}

func (e *encoder) uint(num int, x uint64) { e.varint(uint64(num) << 3); e.varint(x) }

func (e *encoder) bytes(num int, b []byte) {
	e.varint(uint64(num)<<3 | 2)
	e.varint(uint64(len(b)))
	e.b = append(e.b, b...)
}

func (e *encoder) packed(num int, xs ...uint64) {
	var p encoder
	for _, x := range xs {
		p.varint(x)
	}
	e.bytes(num, p.b)
}

func TestParseProfile(t *testing.T) {
	var p encoder
	strs := []string{"", "leaf", "inlined-caller", "root"}
	// Sample 1: packed location ids and values; location 1 holds an
	// inlined pair (leaf inside inlined-caller).
	var s1 encoder
	s1.packed(sampleLocationID, 1, 2)
	s1.packed(sampleValue, 7, 70)
	p.bytes(profSample, s1.b)
	// Sample 2: one value per field, as the encoder writes short lists.
	var s2 encoder
	s2.uint(sampleLocationID, 2)
	s2.uint(sampleValue, 3)
	s2.uint(sampleValue, 30)
	p.bytes(profSample, s2.b)
	for _, loc := range []struct {
		id  uint64
		fns []uint64
	}{{1, []uint64{10, 11}}, {2, []uint64{12}}} {
		var l encoder
		l.uint(locationID, loc.id)
		for _, f := range loc.fns {
			var line encoder
			line.uint(lineFunctionID, f)
			l.bytes(locationLine, line.b)
		}
		p.bytes(profLocation, l.b)
	}
	for i, id := range []uint64{10, 11, 12} {
		var f encoder
		f.uint(functionID, id)
		f.uint(functionName, uint64(i+1))
		p.bytes(profFunction, f.b)
	}
	for _, s := range strs {
		p.bytes(profStringTable, []byte(s))
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write(p.b)
	zw.Close()

	got, err := parseProfile(gz.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	want := []stackSample{
		{frames: []string{"leaf", "inlined-caller", "root"}, count: 7},
		{frames: []string{"root"}, count: 3},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("got %+v, want %+v", got, want)
	}
}

// TestParseRuntimeProfile reads a real profile of a short run.
func TestParseRuntimeProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := core.Run(tinyConfig(0)); err != nil {
			pprof.StopCPUProfile()
			t.Fatal(err)
		}
	}
	pprof.StopCPUProfile()
	stacks, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	inEngine := 0
	for _, s := range stacks {
		if s.count < 1 || len(s.frames) == 0 {
			t.Fatalf("bad sample %+v", s)
		}
		if attribute(s.frames) != "other" {
			inEngine++
		}
	}
	if inEngine == 0 {
		t.Errorf("none of %d samples attributed to a layer", len(stacks))
	}
}

// TestReportsMatchBenchmarkJSON checks that the end-to-end and traced
// runs put exactly the metrics BENCHMARK.json declares, with its
// units, on their result line.
func TestReportsMatchBenchmarkJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the benchmark loops")
	}
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var have []string
	for _, w := range workloads {
		have = append(have, w.name)
	}
	if !reflect.DeepEqual(names, have) {
		t.Errorf("workloads %v, BENCHMARK.json has %v", have, names)
	}

	w := &workload{name: "tiny", config: func(uint64) core.Config { return tinyConfig(2) }}
	c, err := uts.CountSequential(tinyConfig(2).Tree)
	if err != nil {
		t.Fatal(err)
	}
	w.pinned = c.Nodes
	e2e, err := measureEndToEnd(w, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	layers, err := measureLayers(w, 3, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		rep  *report
		want []struct{ Name, Unit string }
	}{{e2e, spec.EndToEnd}, {layers, spec.PerLayer}} {
		if tc.rep.failed > 0 {
			t.Fatalf("failures: %v", tc.rep.failures)
		}
		var got, want []string
		for _, m := range tc.rep.metrics {
			if !m.tableOnly {
				got = append(got, m.name+" "+m.unit)
			}
		}
		for _, m := range tc.want {
			want = append(want, m.Name+" "+m.Unit)
		}
		sort.Strings(got)
		sort.Strings(want)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("metrics\n%v\nBENCHMARK.json declares\n%v", got, want)
		}
	}
}
