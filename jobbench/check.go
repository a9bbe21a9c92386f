package main

import (
	"fmt"
	"math"
)

// familyAlpha is the false-alarm probability the pooled checks of one run
// share: every pooled bound below splits it across its tests.
const familyAlpha = 1e-4

// zFor returns the one-sided standard-normal quantile for tail alpha.
func zFor(alpha float64) float64 { return math.Sqrt2 * math.Erfinv(1-2*alpha) }

// binomialSlack is the largest deviation of an observed frequency over n
// trials from its true value p that a z-sigma test still accepts, with a
// 1/n continuity term.
func binomialSlack(p float64, n int, z float64) float64 {
	return z*math.Sqrt(p*(1-p)/float64(n)) + 1/float64(n)
}

// checkCounts verifies one job's histogram: the counts sum to the shots and
// no outcome sets a bit outside the measured mask.
func checkCounts(counts map[uint64]int, shots int, measured uint64) error {
	total := 0
	for mask, n := range counts {
		if n < 0 {
			return fmt.Errorf("outcome %b has negative count %d", mask, n)
		}
		if mask&^measured != 0 {
			return fmt.Errorf("outcome %b sets a bit outside the measured mask %b", mask, measured)
		}
		total += n
	}
	if total != shots {
		return fmt.Errorf("counts sum to %d, want %d shots", total, shots)
	}
	return nil
}

// checkKnown verifies a job whose every shot should read want but for
// readout flips: want must hold a strict majority of the shots. With 1%
// flips on each of at most two bits, a correct job misses that with
// probability below C(16,8)·0.02^8 ≈ 3e-10 at 16 shots.
func checkKnown(counts map[uint64]int, shots int, want uint64) error {
	if 2*counts[want] <= shots {
		return fmt.Errorf("outcome %b holds %d of %d shots, want a majority (counts %v)", want, counts[want], shots, counts)
	}
	return nil
}

// bellCheck pools the Bell jobs' parity-correct shots, P(00)+P(11).
type bellCheck struct {
	// expect is the floor on P(00)+P(11) (see bellFloor); the pooled
	// frequency must not fall below it by more than the binomial slack.
	expect      float64
	good, shots int
	jobs        int
}

// bellFloor derives the lowest P(00)+P(11) of a Bell job from the device's
// figures: an ideal Bell state read with both bits right (f0·f1) or both
// wrong ((1−f0)(1−f1)), times the chance that no T1 decay hits the excited
// half of the shots over the schedule length tau, times the chance that
// dephasing over tau does not flip the target's phase before the basis
// change that turns it into a parity error. Charging decay and dephasing
// over the whole schedule makes this a floor, not an estimate.
func bellFloor(f0, f1, tau, t1, t2 float64) float64 {
	return (f0*f1 + (1-f0)*(1-f1)) * math.Exp(-tau/t1) * (1 + math.Exp(-tau/t2)) / 2
}

func (b *bellCheck) add(counts map[uint64]int, shots int) error {
	if err := checkCounts(counts, shots, 0b11); err != nil {
		return err
	}
	b.good += counts[0b00] + counts[0b11]
	b.shots += shots
	b.jobs++
	return nil
}

// verify returns the number of jobs the pooled check condemns (all of them
// when it fails) and the reason.
func (b *bellCheck) verify() (int, error) {
	if b.shots == 0 {
		return 0, nil
	}
	got := float64(b.good) / float64(b.shots)
	if low := b.expect - binomialSlack(b.expect, b.shots, zFor(familyAlpha)); got < low {
		return b.jobs, fmt.Errorf("pooled P(00)+P(11) = %.4f over %d shots, below the bound %.4f", got, b.shots, low)
	}
	return 0, nil
}

// rabiCheck pools P(1) per sweep angle: a closed-system RX(θ) reads 1 with
// probability sin²(θ/2), seen through symmetric readout flips eps.
type rabiCheck struct {
	angles []float64
	eps    float64
	ones   []int
	shots  []int
	jobs   []int
}

func newRabiCheck(angles []float64, readoutFidelity float64) *rabiCheck {
	n := len(angles)
	return &rabiCheck{angles: angles, eps: 1 - readoutFidelity,
		ones: make([]int, n), shots: make([]int, n), jobs: make([]int, n)}
}

// expect is the readout-level P(1) at angle θ.
func (r *rabiCheck) expect(theta float64) float64 {
	s := math.Sin(theta / 2)
	return r.eps + (1-2*r.eps)*s*s
}

func (r *rabiCheck) add(point int, counts map[uint64]int, shots int) error {
	if err := checkCounts(counts, shots, 0b1); err != nil {
		return err
	}
	r.ones[point] += counts[1]
	r.shots[point] += shots
	r.jobs[point]++
	return nil
}

// verify tests every angle two-sided, splitting the family alpha across
// the angles, and condemns the jobs of each angle that fails.
func (r *rabiCheck) verify() (int, error) {
	z := zFor(familyAlpha / float64(2*len(r.angles)))
	wrong := 0
	var first error
	for i, theta := range r.angles {
		if r.shots[i] == 0 {
			continue
		}
		p := r.expect(theta)
		got := float64(r.ones[i]) / float64(r.shots[i])
		if slack := binomialSlack(p, r.shots[i], z); math.Abs(got-p) > slack {
			wrong += r.jobs[i]
			if first == nil {
				first = fmt.Errorf("θ=%.4f: pooled P(1) = %.4f over %d shots, want %.4f ± %.4f",
					theta, got, r.shots[i], p, slack)
			}
		}
	}
	return wrong, first
}
