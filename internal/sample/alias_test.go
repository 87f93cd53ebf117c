package sample

import (
	"encoding/binary"
	"errors"
	"math"
	"testing"
	"testing/quick"

	"distws/internal/rng"
)

func TestErrors(t *testing.T) {
	if _, err := NewDiscrete(nil); !errors.Is(err, ErrNoOutcomes) {
		t.Fatalf("nil weights: %v", err)
	}
	if _, err := NewDiscrete([]float64{1, -2, 3}); !errors.Is(err, ErrNegativeWeight) {
		t.Fatalf("negative weight: %v", err)
	}
	if _, err := NewDiscrete([]float64{0, 0}); !errors.Is(err, ErrZeroMass) {
		t.Fatalf("zero mass: %v", err)
	}
	for _, w := range [][]float64{
		{1, math.NaN()},
		{math.Inf(1), 1},
		{math.MaxFloat64, math.MaxFloat64},
	} {
		if _, err := NewDiscrete(w); !errors.Is(err, ErrNonFinite) {
			t.Fatalf("weights %v: %v", w, err)
		}
	}
}

func TestTooManyOutcomes(t *testing.T) {
	w := make([]float64, MaxOutcomes+1)
	for i := range w {
		w[i] = 1
	}
	if _, err := NewDiscrete(w); !errors.Is(err, ErrTooManyOutcomes) {
		t.Fatalf("%d weights: %v", len(w), err)
	}
	if _, err := NewDiscrete(w[:MaxOutcomes]); err != nil {
		t.Fatalf("%d weights: %v", MaxOutcomes, err)
	}
}

func TestMustNewDiscretePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustNewDiscrete did not panic on bad input")
		}
	}()
	MustNewDiscrete(nil)
}

func TestSingleOutcome(t *testing.T) {
	d := MustNewDiscrete([]float64{3.7})
	r := rng.New(1)
	for i := 0; i < 100; i++ {
		if d.Sample(r) != 0 {
			t.Fatal("single-outcome distribution sampled non-zero")
		}
	}
	if p := cellDist(d); p[0] != 1 {
		t.Fatalf("table mass of outcome 0 = %v", p[0])
	}
}

func TestZeroWeightNeverSampled(t *testing.T) {
	d := MustNewDiscrete([]float64{1, 0, 1, 0, 1})
	r := rng.New(2)
	for i := 0; i < 100000; i++ {
		v := d.Sample(r)
		if v == 1 || v == 3 {
			t.Fatalf("sampled zero-weight outcome %d", v)
		}
	}
}

func TestUniformCase(t *testing.T) {
	const n = 8
	w := make([]float64, n)
	for i := range w {
		w[i] = 2.5
	}
	d := MustNewDiscrete(w)
	for i, p := range cellDist(d) {
		if math.Abs(p-1.0/n) > 1e-12 {
			t.Fatalf("table mass of outcome %d = %v", i, p)
		}
	}
	counts := sampleCounts(d, 80000, 3)
	for i, c := range counts {
		if math.Abs(float64(c)/80000-1.0/n) > 0.01 {
			t.Fatalf("outcome %d frequency %v, want ~%v", i, float64(c)/80000, 1.0/n)
		}
	}
}

func TestSkewedFrequencies(t *testing.T) {
	w := []float64{1, 2, 3, 4}
	d := MustNewDiscrete(w)
	const n = 400000
	counts := sampleCounts(d, n, 4)
	for i, c := range counts {
		want := w[i] / 10
		got := float64(c) / n
		if math.Abs(got-want) > 0.01 {
			t.Fatalf("outcome %d frequency %v, want %v", i, got, want)
		}
	}
}

func sampleCounts(d Discrete, n int, seed uint64) []int {
	r := rng.New(seed)
	counts := make([]int, d.N())
	for i := 0; i < n; i++ {
		counts[d.Sample(r)]++
	}
	return counts
}

// Property: construction succeeds for any positive weight vector and
// samples stay in range; the table's masses sum to 1.
func TestPropertyValidConstruction(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		w := make([]float64, len(raw))
		anyPositive := false
		for i, v := range raw {
			w[i] = float64(v)
			if v > 0 {
				anyPositive = true
			}
		}
		d, err := NewDiscrete(w)
		if !anyPositive {
			return errors.Is(err, ErrZeroMass)
		}
		if err != nil {
			return false
		}
		sum := 0.0
		for _, p := range cellDist(d) {
			sum += p
		}
		if math.Abs(sum-1) > 1e-9 {
			return false
		}
		r := rng.New(99)
		for i := 0; i < 200; i++ {
			v := d.Sample(r)
			if v < 0 || v >= len(w) || w[v] == 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: empirical frequencies track the normalized weights for
// random weights (coarse bound, large samples on small supports).
func TestPropertyFrequenciesTrackPDF(t *testing.T) {
	f := func(raw [5]uint8, seed uint64) bool {
		w := make([]float64, 5)
		anyPositive := false
		for i, v := range raw {
			w[i] = float64(v)
			if v > 0 {
				anyPositive = true
			}
		}
		if !anyPositive {
			return true
		}
		d := MustNewDiscrete(w)
		pdf := normalized(w)
		const n = 50000
		r := rng.New(seed)
		counts := make([]int, 5)
		for i := 0; i < n; i++ {
			counts[d.Sample(r)]++
		}
		for i := range w {
			if math.Abs(float64(counts[i])/n-pdf[i]) > 0.02 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestLargeSupport(t *testing.T) {
	// Mimic the paper's use: the largest table, with 1/distance weights.
	const n = MaxOutcomes
	w := make([]float64, n)
	for i := range w {
		w[i] = 1 / float64(1+i%37)
	}
	d := MustNewDiscrete(w)
	pdf := normalized(w)
	r := rng.New(5)
	counts := make([]int, n)
	for i := 0; i < 1_000_000; i++ {
		counts[d.Sample(r)]++
	}
	// Aggregate by weight class to get statistically meaningful bins.
	classTotal := map[int]float64{}
	classCount := map[int]int{}
	for i := range w {
		classTotal[i%37] += pdf[i]
		classCount[i%37] += counts[i]
	}
	for class, p := range classTotal {
		got := float64(classCount[class]) / 1_000_000
		if math.Abs(got-p) > 0.005 {
			t.Fatalf("class %d frequency %v, want %v", class, got, p)
		}
	}
}

// normalized returns w / sum(w), computed as NewDiscrete computes it.
func normalized(w []float64) []float64 {
	var total float64
	for _, v := range w {
		total += v
	}
	p := make([]float64, len(w))
	for i, v := range w {
		p[i] = v / total
	}
	return p
}

// cellDist rebuilds the distribution a table samples: bucket i is drawn
// with probability 1/n and keeps i with probability threshold/2^53.
func cellDist(d Discrete) []float64 {
	n := d.N()
	p := make([]float64, n)
	for i, c := range d.cells {
		keep := float64(c>>aliasBits) / (1 << fracBits)
		p[i] += keep / float64(n)
		p[c&aliasMask] += (1 - keep) / float64(n)
	}
	return p
}

// refTable is the float64 alias table the packed cells replace: Vose's
// construction with a float64 acceptance probability per bucket,
// sampled as Float64() < prob. It is kept here only as the reference
// the packed table must agree with draw for draw.
type refTable struct {
	prob  []float64
	alias []int32
}

func newRefTable(weights []float64) refTable {
	n := len(weights)
	t := refTable{prob: make([]float64, n), alias: make([]int32, n)}
	scaled := normalized(weights)
	for i := range scaled {
		scaled[i] *= float64(n)
	}
	small := make([]int32, 0, n)
	large := make([]int32, 0, n)
	for i := n - 1; i >= 0; i-- {
		if scaled[i] < 1 {
			small = append(small, int32(i))
		} else {
			large = append(large, int32(i))
		}
	}
	for len(small) > 0 && len(large) > 0 {
		s := small[len(small)-1]
		small = small[:len(small)-1]
		l := large[len(large)-1]
		large = large[:len(large)-1]
		t.prob[s] = scaled[s]
		t.alias[s] = l
		scaled[l] = (scaled[l] + scaled[s]) - 1
		if scaled[l] < 1 {
			small = append(small, l)
		} else {
			large = append(large, l)
		}
	}
	for _, i := range append(small, large...) {
		t.prob[i] = 1
		t.alias[i] = i
	}
	return t
}

// decide is the reference's second step: bucket i and output u.
func (t refTable) decide(i int, u uint64) int {
	if float64(u>>11)/(1<<53) < t.prob[i] {
		return i
	}
	return int(t.alias[i])
}

func (t refTable) sample(r *rng.Xoshiro256) int {
	i := r.Intn(len(t.prob))
	return t.decide(i, r.Uint64())
}

func TestThresholdExact(t *testing.T) {
	for _, p := range []float64{0, math.SmallestNonzeroFloat64, 0x1p-60, 0.5, 1 - 0x1p-53, 1} {
		thr := threshold(p)
		us := []uint64{0, thr, 1<<53 - 1}
		if thr > 0 {
			us = append(us, thr-1)
		}
		for _, u := range us {
			if u >= 1<<53 {
				continue
			}
			if got, want := u < thr, float64(u)/(1<<53) < p; got != want {
				t.Errorf("p=%v u=%d: packed %v, float %v", p, u, got, want)
			}
		}
	}
	if thr := threshold(1 - 0x1p-53); thr >= 1<<fracBits {
		t.Fatalf("largest sub-1 probability needs threshold %d, more than %d bits", thr, fracBits)
	}
}

// checkAgainstRef asserts the table d built from w realizes the
// normalized weights to 1e-12 and decides every given output u in
// every bucket exactly as the float64 reference does.
func checkAgainstRef(t *testing.T, w []float64, d Discrete, us []uint64) {
	t.Helper()
	ref := newRefTable(w)
	want := normalized(w)
	for i, p := range cellDist(d) {
		if math.Abs(p-want[i]) > 1e-12 {
			t.Fatalf("outcome %d: table mass %v, normalized weight %v", i, p, want[i])
		}
	}
	for i, c := range d.cells {
		if int(c&aliasMask) >= d.N() {
			t.Fatalf("bucket %d: alias %d out of range", i, c&aliasMask)
		}
		if ref.prob[i] < 1 {
			if thr := threshold(ref.prob[i]); c>>aliasBits != thr || c&aliasMask != uint64(ref.alias[i]) {
				t.Fatalf("bucket %d: cell (%d, %d), reference (%d, %d)", i, c>>aliasBits, c&aliasMask, thr, ref.alias[i])
			}
		}
		for _, u := range us {
			if got, want := d.decide(i, u), ref.decide(i, u); got != want {
				t.Fatalf("bucket %d, u=%#x: packed %d, reference %d", i, u, got, want)
			}
		}
	}
}

func TestMatchesFloatReference(t *testing.T) {
	r := rng.New(7)
	for _, n := range []int{1, 2, 3, 37, 256, MaxOutcomes} {
		w := make([]float64, n)
		for i := range w {
			w[i] = 1 / float64(1+r.Intn(100))
		}
		d := MustNewDiscrete(w)
		us := []uint64{0, 1<<64 - 1}
		for k := 0; k < 16; k++ {
			us = append(us, r.Uint64())
		}
		checkAgainstRef(t, w, d, us)
		// Sample consumes the generator as the reference does: Intn
		// for the bucket, then one output for the decision.
		rt := newRefTable(w)
		a, b := rng.New(uint64(n)), rng.New(uint64(n))
		for k := 0; k < 1000; k++ {
			if got, want := d.Sample(a), rt.sample(b); got != want {
				t.Fatalf("n=%d draw %d: packed %d, reference %d", n, k, got, want)
			}
		}
	}
}

// FuzzDiscrete drives NewDiscrete with arbitrary weight vectors, eight
// bytes per little-endian float64 weight, and the first eight bytes as
// an extra generator output to decide with. The seed corpus is in
// testdata/fuzz/FuzzDiscrete. Long inputs make minimization slow, so
// fuzz with a cap on it:
//
//	go test ./internal/sample -run '^$' -fuzz FuzzDiscrete -fuzzminimizetime 2s
func FuzzDiscrete(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		w := make([]float64, len(data)/8)
		for i := range w {
			w[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:]))
		}
		d, err := NewDiscrete(w)
		if err != nil {
			for _, known := range []error{ErrNoOutcomes, ErrTooManyOutcomes, ErrNegativeWeight, ErrNonFinite, ErrZeroMass} {
				if errors.Is(err, known) {
					return
				}
			}
			t.Fatalf("undocumented error %v", err)
		}
		us := []uint64{0, 1<<64 - 1, binary.LittleEndian.Uint64(data), rng.Mix64(uint64(len(data)))}
		checkAgainstRef(t, w, d, us)
	})
}

func BenchmarkSampleMax(b *testing.B) {
	w := make([]float64, MaxOutcomes)
	for i := range w {
		w[i] = 1 / float64(1+i)
	}
	d := MustNewDiscrete(w)
	r := rng.New(1)
	b.ReportAllocs()
	b.ResetTimer()
	var sink int
	for i := 0; i < b.N; i++ {
		sink += d.Sample(r)
	}
	_ = sink
}

func BenchmarkBuildMax(b *testing.B) {
	w := make([]float64, MaxOutcomes)
	for i := range w {
		w[i] = 1 / float64(1+i)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = MustNewDiscrete(w)
	}
}
