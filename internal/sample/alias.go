// Package sample implements O(1) sampling from arbitrary discrete
// probability distributions using Walker's alias method.
//
// It replaces the GNU Scientific Library's gsl_ran_discrete, which the
// paper's modified UTS uses to sample the distance-skewed victim
// distribution. Construction is O(n); each draw costs two generator
// outputs and one table word.
//
// A table is one uint64 cell per outcome, threshold<<11 | alias. The
// threshold is exact: rng.Float64 is float64(u>>11)/2^53, so
// Float64() < p holds exactly when u>>11 < ceil(p·2^53), and every
// acceptance probability p < 1 gives a threshold of at most 2^53-1,
// which fits the 53 bits above the alias. A cell that always accepts
// (p == 1) has itself as alias and is stored as threshold 0. Sample
// therefore draws exactly what a float64 table compared against
// Float64 would, reading one word per draw.
package sample

import (
	"errors"
	"fmt"
	"math"

	"distws/internal/rng"
)

const (
	// fracBits is the precision of rng.Float64: it compares the top 53
	// bits of a generator output against the acceptance probability.
	fracBits = 53
	// aliasBits is what a cell has left below its 53-bit threshold.
	aliasBits = 64 - fracBits
	aliasMask = 1<<aliasBits - 1

	// MaxOutcomes is the largest support NewDiscrete accepts: every
	// alias must fit the cell's low aliasBits bits.
	MaxOutcomes = 1 << aliasBits
)

// Discrete is a preprocessed discrete distribution over {0, ..., n-1}.
// The zero value has no outcomes and must not be sampled.
type Discrete struct {
	cells []uint64 // threshold<<aliasBits | alias, one per outcome
}

// Errors returned by NewDiscrete.
var (
	ErrNoOutcomes      = errors.New("sample: empty weight vector")
	ErrTooManyOutcomes = errors.New("sample: more weights than MaxOutcomes")
	ErrNegativeWeight  = errors.New("sample: negative weight")
	ErrNonFinite       = errors.New("sample: weight or weight sum is not finite")
	ErrZeroMass        = errors.New("sample: all weights are zero")
)

// threshold returns ceil(p·2^53), the bound t for which
// float64(v)/2^53 < p holds exactly when v < t, for every 53-bit v.
// Scaling by a power of two and rounding up to an integer are both
// exact in float64.
func threshold(p float64) uint64 {
	return uint64(math.Ceil(p * (1 << fracBits)))
}

// NewDiscrete builds an alias table from at most MaxOutcomes finite,
// non-negative weights. Weights need not be normalized. At least one
// weight must be positive. The returned table is the only allocation.
func NewDiscrete(weights []float64) (Discrete, error) {
	n := len(weights)
	switch {
	case n == 0:
		return Discrete{}, ErrNoOutcomes
	case n > MaxOutcomes:
		return Discrete{}, fmt.Errorf("%w: %d > %d", ErrTooManyOutcomes, n, MaxOutcomes)
	}
	var total float64
	for i, w := range weights {
		if w < 0 {
			return Discrete{}, fmt.Errorf("%w: weight[%d] = %v", ErrNegativeWeight, i, w)
		}
		total += w
	}
	if math.IsNaN(total) || math.IsInf(total, 0) {
		return Discrete{}, ErrNonFinite
	}
	if total == 0 {
		return Discrete{}, ErrZeroMass
	}

	// Vose's stable two-worklist construction. Until outcome i is
	// settled, cells[i] holds the bits of its mass, scaled so the average
	// bucket mass is exactly 1. Every unsettled outcome is on exactly
	// one stack, so both share one buffer: small grows up from work[0],
	// large grows down from work[n-1].
	cells := make([]uint64, n)
	var work [MaxOutcomes]uint16
	small, large := 0, 0
	push := func(i uint16, mass float64) {
		cells[i] = math.Float64bits(mass)
		if mass < 1 {
			work[small] = i
			small++
		} else {
			large++
			work[n-large] = i
		}
	}
	for i := n - 1; i >= 0; i-- {
		push(uint16(i), weights[i]/total*float64(n))
	}
	for small > 0 && large > 0 {
		small--
		s := work[small]
		l := work[n-large]
		large--
		ms := math.Float64frombits(cells[s])
		ml := math.Float64frombits(cells[l])
		cells[s] = threshold(ms)<<aliasBits | uint64(l)
		push(l, (ml+ms)-1)
	}
	// Whatever remains should have mass 1 up to floating-point error:
	// it always keeps its own outcome.
	for _, i := range work[:small] {
		cells[i] = uint64(i)
	}
	for _, i := range work[n-large : n] {
		cells[i] = uint64(i)
	}
	return Discrete{cells: cells}, nil
}

// MustNewDiscrete is like NewDiscrete but panics on error. For use with
// weight vectors known to be valid by construction.
func MustNewDiscrete(weights []float64) Discrete {
	d, err := NewDiscrete(weights)
	if err != nil {
		panic(err)
	}
	return d
}

// N returns the number of outcomes.
func (d Discrete) N() int { return len(d.cells) }

// Sample draws one outcome using the given generator: a bucket, then
// one more output to decide between the bucket and its alias.
func (d Discrete) Sample(r *rng.Xoshiro256) int {
	i := r.Intn(len(d.cells))
	return d.decide(i, r.Uint64())
}

// decide keeps bucket i when the top 53 bits of the generator output u
// fall below the bucket's threshold, as r.Float64() < p would.
func (d Discrete) decide(i int, u uint64) int {
	c := d.cells[i]
	if u>>aliasBits < c>>aliasBits {
		return i
	}
	return int(c & aliasMask)
}
