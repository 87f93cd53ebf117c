package victim

import (
	"math"
	"sync"
	"testing"

	"distws/internal/rng"
	"distws/internal/topology"
)

func testJob(t testing.TB, nranks int, p topology.Placement) *topology.Job {
	t.Helper()
	job, err := topology.NewJob(topology.KComputer(), nranks, p)
	if err != nil {
		t.Fatal(err)
	}
	return job
}

func TestRoundRobinSequence(t *testing.T) {
	job := testJob(t, 8, topology.OnePerNode)
	s := NewRoundRobin(job, 0)
	// Thief 0: victims 1,2,3,...,7, then wraps skipping itself: 1,2,...
	want := []int{1, 2, 3, 4, 5, 6, 7, 1, 2}
	for i, w := range want {
		if got := s.Next(0); got != w {
			t.Fatalf("attempt %d: got %d want %d", i, got, w)
		}
	}
	// Thief 6 starts at 7, wraps over 0 and skips itself at 6.
	want6 := []int{7, 0, 1, 2, 3, 4, 5, 7}
	for i, w := range want6 {
		if got := s.Next(6); got != w {
			t.Fatalf("thief 6 attempt %d: got %d want %d", i, got, w)
		}
	}
}

func TestRoundRobinStatePersistsAcrossObserve(t *testing.T) {
	// Paper: "a successful steal does not impact this choice: the next
	// search for work will start at the neighbor of the last victim."
	job := testJob(t, 4, topology.OnePerNode)
	s := NewRoundRobin(job, 0)
	first := s.Next(0) // 1
	s.Observe(0, first, true)
	if got := s.Next(0); got != 2 {
		t.Fatalf("after successful steal of 1, next = %d, want 2", got)
	}
}

func TestUniformRandomCoverageAndExclusion(t *testing.T) {
	job := testJob(t, 16, topology.OnePerNode)
	s := NewUniformRandom(job, 7)
	counts := make([]int, 16)
	const draws = 32000
	for i := 0; i < draws; i++ {
		v := s.Next(3)
		if v == 3 {
			t.Fatal("uniform selector returned the thief")
		}
		counts[v]++
	}
	for j, c := range counts {
		if j == 3 {
			continue
		}
		got := float64(c) / draws
		if math.Abs(got-1.0/15) > 0.01 {
			t.Fatalf("rank %d frequency %v, want ~%v", j, got, 1.0/15)
		}
	}
}

func TestSelectorDeterminism(t *testing.T) {
	job := testJob(t, 64, topology.OnePerNode)
	for name, factory := range Strategies {
		a := factory(job, 99)
		b := factory(job, 99)
		for i := 0; i < 500; i++ {
			thief := i % 64
			va, vb := a.Next(thief), b.Next(thief)
			if va != vb {
				t.Fatalf("%s: same-seed selectors diverged at draw %d", name, i)
			}
			a.Observe(thief, va, i%5 == 0)
			b.Observe(thief, vb, i%5 == 0)
		}
	}
}

func TestSelectorsNeverReturnThief(t *testing.T) {
	job := testJob(t, 32, topology.EightGrouped)
	for name, factory := range Strategies {
		s := factory(job, 3)
		for i := 0; i < 2000; i++ {
			thief := i % 32
			v := s.Next(thief)
			if v == thief {
				t.Fatalf("%s returned the thief itself", name)
			}
			if v < 0 || v >= 32 {
				t.Fatalf("%s returned out-of-range rank %d", name, v)
			}
			s.Observe(thief, v, i%7 == 0)
		}
	}
}

func TestDistanceSkewedPDF(t *testing.T) {
	job := testJob(t, 256, topology.OnePerNode)
	s := NewDistanceSkewed(job, 1).(*distanceSkewed)
	pdf := s.PDF(0)
	if len(pdf) != 256 {
		t.Fatalf("pdf length %d", len(pdf))
	}
	if pdf[0] != 0 {
		t.Fatal("thief has non-zero selection probability")
	}
	sum := 0.0
	for _, p := range pdf {
		sum += p
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("pdf sums to %v", sum)
	}
	// Closer ranks must be more probable: compare the nearest other
	// rank with the farthest.
	near, far := -1, -1
	nd, fd := math.Inf(1), 0.0
	for j := 1; j < 256; j++ {
		d := job.Distance(0, j)
		if d < nd {
			nd, near = d, j
		}
		if d > fd {
			fd, far = d, j
		}
	}
	if pdf[near] <= pdf[far] {
		t.Fatalf("near rank %d (d=%v) p=%v not more probable than far rank %d (d=%v) p=%v",
			near, nd, pdf[near], far, fd, pdf[far])
	}
	// And the ratio must follow the weights: p ~ 1/d.
	wantRatio := fd / nd
	gotRatio := pdf[near] / pdf[far]
	if math.Abs(gotRatio-wantRatio)/wantRatio > 1e-9 {
		t.Fatalf("probability ratio %v, want %v", gotRatio, wantRatio)
	}
}

func TestDistanceSkewedSameNodeWeight(t *testing.T) {
	// Under 8G, ranks 0..7 share a node: distance 0, weight 1 — the
	// highest possible. They must dominate the PDF.
	job := testJob(t, 64, topology.EightGrouped)
	s := NewDistanceSkewed(job, 1).(*distanceSkewed)
	w := s.Weights(0)
	for j := 1; j < 8; j++ {
		if w[j] != 1 {
			t.Fatalf("same-node weight w[0][%d] = %v, want 1", j, w[j])
		}
	}
	for j := 8; j < 64; j++ {
		d := job.Distance(0, j)
		if d <= 0 {
			t.Fatalf("cross-node pair (0,%d) at distance %v", j, d)
		}
		if want := 1 / d; math.Abs(w[j]-want) > 1e-12 {
			t.Fatalf("cross-node weight w[0][%d] = %v, want 1/d = %v", j, w[j], want)
		}
	}
}

func TestDistanceSkewedEmpiricalMatchesPDF(t *testing.T) {
	job := testJob(t, 128, topology.OnePerNode)
	s := NewDistanceSkewed(job, 5).(*distanceSkewed)
	pdf := s.PDF(0)
	const draws = 200000
	counts := make([]int, 128)
	for i := 0; i < draws; i++ {
		counts[s.Next(0)]++
	}
	for j := 1; j < 128; j++ {
		got := float64(counts[j]) / draws
		if math.Abs(got-pdf[j]) > 0.008 {
			t.Fatalf("rank %d frequency %v vs pdf %v", j, got, pdf[j])
		}
	}
}

func TestDistanceSkewedRejectionMatchesAlias(t *testing.T) {
	// Above aliasThreshold the selector switches to rejection sampling;
	// both must realize the same distribution. Compare empirical
	// frequencies of the rejection path against the exact PDF on a job
	// large enough to trigger it.
	job := testJob(t, 4096, topology.OnePerNode)
	s := NewDistanceSkewed(job, 11).(*distanceSkewed)
	if s.tables != nil {
		t.Fatal("test setup: expected rejection mode at 4096 ranks")
	}
	pdf := s.PDF(0)
	const draws = 300000
	counts := make([]int, 4096)
	for i := 0; i < draws; i++ {
		counts[s.Next(0)]++
	}
	// Aggregate into 16 distance-ordered bins to get stable statistics.
	type rankP struct {
		j int
		p float64
	}
	var byP []rankP
	for j := 1; j < 4096; j++ {
		byP = append(byP, rankP{j, pdf[j]})
	}
	const bins = 16
	per := len(byP) / bins
	for b := 0; b < bins; b++ {
		var wantP, gotP float64
		for i := b * per; i < (b+1)*per; i++ {
			wantP += byP[i].p
			gotP += float64(counts[byP[i].j]) / draws
		}
		if math.Abs(gotP-wantP) > 0.01 {
			t.Fatalf("bin %d: empirical %v vs pdf %v", b, gotP, wantP)
		}
	}
}

func TestDistanceSkewedExpZeroIsUniform(t *testing.T) {
	job := testJob(t, 64, topology.OnePerNode)
	s := NewDistanceSkewedExp(job, 1, 0).(*distanceSkewed)
	pdf := s.PDF(5)
	for j := 0; j < 64; j++ {
		if j == 5 {
			continue
		}
		if math.Abs(pdf[j]-1.0/63) > 1e-9 {
			t.Fatalf("k=0 pdf[%d] = %v, want uniform %v", j, pdf[j], 1.0/63)
		}
	}
	if s.Name() != "Tofu^0" {
		t.Fatalf("Name = %q", s.Name())
	}
}

func TestLastVictimRetriesOnSuccess(t *testing.T) {
	job := testJob(t, 16, topology.OnePerNode)
	s := NewLastVictim(job, 5)
	v := s.Next(2)
	s.Observe(2, v, true)
	if got := s.Next(2); got != v {
		t.Fatalf("after success on %d, next = %d", v, got)
	}
	// After a failure on the retried victim, fall back to random.
	s.Observe(2, v, false)
	seenOther := false
	for i := 0; i < 50; i++ {
		if s.Next(2) != v {
			seenOther = true
			break
		}
	}
	if !seenOther {
		t.Fatal("LastVictim stuck on failed victim")
	}
}

func TestHierarchicalPrefersClose(t *testing.T) {
	job := testJob(t, 64, topology.EightGrouped)
	s := NewHierarchical(job, 9)
	// First attempts of a search must stay on the thief's node
	// (ranks 8..15 for thief 8).
	for trial := 0; trial < 20; trial++ {
		s.Observe(8, 0, true) // reset escalation
		v := s.Next(8)
		if v < 8 || v > 15 {
			t.Fatalf("first attempt went off-node to %d", v)
		}
	}
	// Without successes the search must eventually escalate off-node.
	s.Observe(8, 0, true)
	offNode := false
	for i := 0; i < 20; i++ {
		if v := s.Next(8); v < 8 || v > 15 {
			offNode = true
			break
		}
	}
	if !offNode {
		t.Fatal("hierarchical selector never escalated")
	}
}

func TestLifelineCyclesLinks(t *testing.T) {
	job := testJob(t, 16, topology.OnePerNode)
	s := NewLifeline(job, 3).(*lifeline)
	// Exhaust the random attempts.
	for i := 0; i < randomAttemptsBeforeLifeline; i++ {
		s.Next(0)
	}
	// Then the thief cycles deterministically through hypercube links
	// 1, 2, 4, 8.
	want := []int{1, 2, 4, 8, 1, 2}
	for i, w := range want {
		if got := s.Next(0); got != w {
			t.Fatalf("lifeline attempt %d: got %d want %d", i, got, w)
		}
	}
	// Success resets to random phase.
	s.Observe(0, 1, true)
	if s.attempts[0] != 0 {
		t.Fatal("success did not reset lifeline attempts")
	}
}

func TestStrategyRegistry(t *testing.T) {
	names := StrategyNames()
	if len(names) != 6 {
		t.Fatalf("expected 6 strategies, got %v", names)
	}
	job := testJob(t, 8, topology.OnePerNode)
	for _, n := range names {
		s := Strategies[n](job, 1)
		if s == nil {
			t.Fatalf("factory %q returned nil", n)
		}
		if s.Name() == "" {
			t.Fatalf("strategy %q has empty name", n)
		}
	}
}

func TestTwoRankJob(t *testing.T) {
	// Degenerate case: with 2 ranks every selector must return the
	// other rank.
	job := testJob(t, 2, topology.OnePerNode)
	for name, factory := range Strategies {
		s := factory(job, 1)
		for i := 0; i < 20; i++ {
			if v := s.Next(0); v != 1 {
				t.Fatalf("%s: Next(0) = %d with 2 ranks", name, v)
			}
			if v := s.Next(1); v != 0 {
				t.Fatalf("%s: Next(1) = %d with 2 ranks", name, v)
			}
		}
	}
}

func BenchmarkRoundRobinNext(b *testing.B) {
	job := testJob(b, 1024, topology.OnePerNode)
	s := NewRoundRobin(job, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Next(i % 1024)
	}
}

func BenchmarkTofuAliasNext(b *testing.B) {
	job := testJob(b, 1024, topology.OnePerNode)
	s := NewDistanceSkewed(job, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Next(i % 1024)
	}
}

func BenchmarkTofuRejectionNext(b *testing.B) {
	job := testJob(b, 8192, topology.OnePerNode)
	s := NewDistanceSkewed(job, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Next(i % 8192)
	}
}

// refSelector is the distance-skewed selector as it stood with float64
// alias tables: weights from Euclid distances, Vose's construction
// with a float64 acceptance probability per bucket sampled as
// Float64() < prob, rejection sampling above aliasThreshold, and one
// separately allocated generator per rank. It exists only as the
// reference the packed tables must reproduce draw for draw.
type refSelector struct {
	job   *topology.Job
	k     float64
	rand  []*rng.Xoshiro256
	prob  [][]float64
	alias [][]int32
}

func newRefSelector(job *topology.Job, seed uint64, k float64) *refSelector {
	n := job.Ranks()
	r := &refSelector{job: job, k: k, rand: make([]*rng.Xoshiro256, n),
		prob: make([][]float64, n), alias: make([][]int32, n)}
	for i := range r.rand {
		r.rand[i] = rng.New(rng.Mix64(seed) ^ rng.Mix64(uint64(i)+0x51ed270693c5e191))
	}
	return r
}

func (r *refSelector) weight(thief, j int) float64 {
	e := topology.Euclid(r.job.Coord(thief), r.job.Coord(j))
	if e == 0 {
		return 1
	}
	return 1 / math.Pow(e, r.k)
}

// build is Vose's stable two-worklist construction over float64
// probabilities.
func (r *refSelector) build(thief int) {
	n := r.job.Ranks()
	w := make([]float64, n)
	var total float64
	for j := range w {
		if j != thief {
			w[j] = r.weight(thief, j)
		}
		total += w[j]
	}
	prob, alias, scaled := make([]float64, n), make([]int32, n), make([]float64, n)
	for j := range w {
		scaled[j] = w[j] / total * float64(n)
	}
	var small, large []int32
	for i := n - 1; i >= 0; i-- {
		if scaled[i] < 1 {
			small = append(small, int32(i))
		} else {
			large = append(large, int32(i))
		}
	}
	for len(small) > 0 && len(large) > 0 {
		s, l := small[len(small)-1], large[len(large)-1]
		small, large = small[:len(small)-1], large[:len(large)-1]
		prob[s], alias[s] = scaled[s], l
		scaled[l] = (scaled[l] + scaled[s]) - 1
		if scaled[l] < 1 {
			small = append(small, l)
		} else {
			large = append(large, l)
		}
	}
	for _, i := range append(small, large...) {
		prob[i], alias[i] = 1, i
	}
	r.prob[thief], r.alias[thief] = prob, alias
}

func (r *refSelector) Next(thief int) int {
	n := r.job.Ranks()
	g := r.rand[thief]
	if n <= aliasThreshold {
		if r.prob[thief] == nil {
			r.build(thief)
		}
		i := g.Intn(n)
		if g.Float64() < r.prob[thief][i] {
			return i
		}
		return int(r.alias[thief][i])
	}
	for {
		v := g.Intn(n - 1)
		if v >= thief {
			v++
		}
		if g.Float64() < r.weight(thief, v) {
			return v
		}
	}
}

// TestDistanceSkewedMatchesFloatReference pins the closed-steal
// selector: at the largest table size, under every placement and
// three exponents, every thief's first 64 victims equal the float64
// reference's. The golden runs only 128 ranks.
func TestDistanceSkewedMatchesFloatReference(t *testing.T) {
	const draws = 64
	for _, p := range []topology.Placement{topology.OnePerNode, topology.EightGrouped, topology.EightRoundRobin} {
		job := testJob(t, aliasThreshold, p)
		for _, k := range []float64{0, 1, 2} {
			s := NewDistanceSkewedExp(job, 17, k)
			ref := newRefSelector(job, 17, k)
			for thief := 0; thief < job.Ranks(); thief++ {
				for i := 0; i < draws; i++ {
					if got, want := s.Next(thief), ref.Next(thief); got != want {
						t.Fatalf("%v k=%g thief %d draw %d: got %d, reference %d", p, k, thief, i, got, want)
					}
				}
				ref.prob[thief], ref.alias[thief] = nil, nil
			}
		}
	}
}

// TestDistanceSkewedRejectionMatchesReference pins the table-free path
// above aliasThreshold the same way, on a sample of thieves.
func TestDistanceSkewedRejectionMatchesReference(t *testing.T) {
	job := testJob(t, 2*aliasThreshold, topology.OnePerNode)
	s := NewDistanceSkewed(job, 3)
	ref := newRefSelector(job, 3, 1)
	for thief := 0; thief < job.Ranks(); thief += 61 {
		for i := 0; i < 64; i++ {
			if got, want := s.Next(thief), ref.Next(thief); got != want {
				t.Fatalf("thief %d draw %d: got %d, reference %d", thief, i, got, want)
			}
		}
	}
}

// TestDistanceSkewedNextAllocFree gates the selector's allocations: a
// warm Next allocates nothing, and building a thief's table allocates
// exactly the table.
func TestDistanceSkewedNextAllocFree(t *testing.T) {
	job := testJob(t, aliasThreshold, topology.OnePerNode)
	s := NewDistanceSkewed(job, 1)
	thief := 0
	builds := testing.AllocsPerRun(100, func() {
		s.Next(thief)
		thief++
	})
	if builds != 1 {
		t.Fatalf("table build allocates %v times, want 1", builds)
	}
	next := testing.AllocsPerRun(1000, func() {
		s.Next(thief % 64)
		thief++
	})
	if next != 0 {
		t.Fatalf("warm Next allocates %v times, want 0", next)
	}
}

// TestDistanceSkewedConcurrentShards drives one selector as the
// sharded engine does: each shard goroutine calls Next only for its
// own contiguous range of thieves. The engine itself makes every
// thief but rank 0 draw first during single-threaded setup, so here
// the two halves build all their tables at the same time instead.
// Under `make race` any scratch the builds shared would trip the
// detector; either way each thief's draws must equal a sequential
// selector's.
func TestDistanceSkewedConcurrentShards(t *testing.T) {
	const n, draws = 512, 8
	job := testJob(t, n, topology.OnePerNode)
	s := NewDistanceSkewed(job, 9)
	got := make([]int, n*draws)
	var wg sync.WaitGroup
	for shard := 0; shard < 2; shard++ {
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for thief := lo; thief < hi; thief++ {
				for i := 0; i < draws; i++ {
					got[thief*draws+i] = s.Next(thief)
				}
			}
		}(shard*n/2, (shard+1)*n/2)
	}
	wg.Wait()
	seq := NewDistanceSkewed(job, 9)
	for thief := 0; thief < n; thief++ {
		for i := 0; i < draws; i++ {
			if want := seq.Next(thief); got[thief*draws+i] != want {
				t.Fatalf("thief %d draw %d: concurrent %d, sequential %d", thief, i, got[thief*draws+i], want)
			}
		}
	}
}

// BenchmarkDistanceSkewedNext measures warm draws on the closed-steal
// selector: the largest tables, one rank per node.
func BenchmarkDistanceSkewedNext(b *testing.B) {
	job := testJob(b, aliasThreshold, topology.OnePerNode)
	s := NewDistanceSkewed(job, 1)
	for thief := 0; thief < aliasThreshold; thief++ {
		s.Next(thief)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Next(i % aliasThreshold)
	}
}
