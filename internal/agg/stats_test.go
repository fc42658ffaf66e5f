package agg

// Statistical property tests: beyond the exact draw-sequence pins of
// agg_test.go, these check that the seeded generators actually have the
// *shapes* the model advertises — Poisson counts with the right mass
// function, a sinusoid that averages out over a day, exponential spike
// gaps, a stationary churn process. Everything is seeded, so the
// assertions are deterministic; the tolerance bands exist because the
// estimators are finite-sample, not because the values vary.

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"dmetabench/internal/service"
	"dmetabench/internal/workload"
)

// TestPoissonSampleMean checks the first moment on both sides of the
// Knuth/normal cutover.
func TestPoissonSampleMean(t *testing.T) {
	for _, mean := range []float64{3, 400} {
		rng := rand.New(rand.NewSource(9))
		const n = 20000
		var sum float64
		for i := 0; i < n; i++ {
			sum += float64(poisson(rng, mean))
		}
		got := sum / n
		if math.Abs(got-mean)/mean > 0.01 {
			t.Errorf("sample mean for Poisson(%v) = %.3f, want within 1%%", mean, got)
		}
	}
}

// TestPoissonChiSquared bins 20k draws of Poisson(4) against the exact
// probability mass function. The statistic is deterministic (seeded);
// the bound is the chi-squared 0.999 quantile at 12 degrees of freedom,
// so a sampler regression that deforms the distribution — not just the
// sequence — fails loudly.
func TestPoissonChiSquared(t *testing.T) {
	const mean = 4.0
	const n = 20000
	const bins = 12 // counts 0..10 plus a >=11 tail bin
	rng := rand.New(rand.NewSource(10))
	obs := make([]float64, bins)
	for i := 0; i < n; i++ {
		k := poisson(rng, mean)
		if k >= bins-1 {
			k = bins - 1
		}
		obs[k]++
	}
	exp := make([]float64, bins)
	pmf := math.Exp(-mean) // P(0)
	cum := 0.0
	for k := 0; k < bins-1; k++ {
		exp[k] = n * pmf
		cum += pmf
		pmf *= mean / float64(k+1)
	}
	exp[bins-1] = n * (1 - cum)
	var chi2 float64
	for k := 0; k < bins; k++ {
		d := obs[k] - exp[k]
		chi2 += d * d / exp[k]
	}
	// chi-squared 0.999 quantile, 11 df ~= 31.3.
	if chi2 > 31.3 {
		t.Errorf("chi-squared = %.2f over %d bins, exceeds 31.3; observed %v", chi2, bins, obs)
	}
}

// TestPoissonNormalBranchVariance checks the second moment of the
// normal-approximation branch (a Poisson's variance equals its mean).
func TestPoissonNormalBranchVariance(t *testing.T) {
	const mean = 400.0
	const n = 20000
	rng := rand.New(rand.NewSource(11))
	xs := make([]float64, n)
	var sum float64
	for i := range xs {
		xs[i] = float64(poisson(rng, mean))
		sum += xs[i]
	}
	m := sum / n
	var ss float64
	for _, x := range xs {
		ss += (x - m) * (x - m)
	}
	v := ss / n
	if math.Abs(v-mean)/mean > 0.05 {
		t.Errorf("sample variance = %.1f, want %v within 5%%", v, mean)
	}
}

// TestDiurnalShape pins the sinusoid's anchor points and its defining
// property: the modulation averages to 1 over a full cycle, so the
// daily op volume is Amplitude-independent.
func TestDiurnalShape(t *testing.T) {
	d := Diurnal{Amplitude: 0.6, Period: 24 * time.Hour}
	if got := d.At(0); math.Abs(got-1) > 1e-12 {
		t.Errorf("At(0) = %v, want 1", got)
	}
	if got := d.At(6 * time.Hour); math.Abs(got-1.6) > 1e-9 {
		t.Errorf("peak At(P/4) = %v, want 1.6", got)
	}
	if got := d.At(18 * time.Hour); math.Abs(got-0.4) > 1e-9 {
		t.Errorf("trough At(3P/4) = %v, want 0.4", got)
	}
	var sum float64
	const n = 10000
	for i := 0; i < n; i++ {
		sum += d.At(time.Duration(i) * 24 * time.Hour / n)
	}
	if got := sum / n; math.Abs(got-1) > 1e-3 {
		t.Errorf("cycle mean = %v, want 1", got)
	}
	if got := (Diurnal{}).At(5 * time.Hour); got != 1 {
		t.Errorf("zero-value Diurnal At = %v, want 1", got)
	}
	// An amplitude above 1 floors at zero instead of going negative.
	deep := Diurnal{Amplitude: 2, Period: time.Hour}
	if got := deep.At(45 * time.Minute); got != 0 {
		t.Errorf("over-amplitude trough = %v, want 0", got)
	}
}

// TestSpikeGapDistribution checks the onset process: gaps are floored
// at one decay constant and average the configured MeanInterval within
// a finite-sample band.
func TestSpikeGapDistribution(t *testing.T) {
	cfg := Spikes{MeanInterval: 10 * time.Second, Peak: 2, Decay: time.Second}
	s := newSpikeTrain(cfg, 13)
	const n = 10000
	var sum time.Duration
	for i := 0; i < n; i++ {
		g := s.gap()
		if g < cfg.Decay {
			t.Fatalf("gap %v below the decay floor %v", g, cfg.Decay)
		}
		sum += g
	}
	mean := sum / n
	lo, hi := 9*time.Second, 11500*time.Millisecond
	if mean < lo || mean > hi {
		t.Errorf("mean gap = %v, want within [%v, %v]", mean, lo, hi)
	}
}

// TestSpikeTrainShape walks one train through time: factor 1 before the
// first onset, exactly 1+Peak at an onset, exponential decay after it,
// and never outside [1, 1+Peak].
func TestSpikeTrainShape(t *testing.T) {
	cfg := Spikes{MeanInterval: 10 * time.Second, Peak: 2, Decay: time.Second}
	s := newSpikeTrain(cfg, 14)
	onset := s.next
	if got := s.at(onset / 2); got != 1 {
		t.Errorf("factor before first onset = %v, want 1", got)
	}
	if got := s.at(onset); math.Abs(got-3) > 1e-12 {
		t.Errorf("factor at onset = %v, want 1+Peak = 3", got)
	}
	want := 1 + 2*math.Exp(-0.5)
	if got := s.at(onset + cfg.Decay/2); math.Abs(got-want) > 1e-9 {
		t.Errorf("factor half a decay after onset = %v, want %v", got, want)
	}
	r := newSpikeTrain(cfg, 15)
	for ts := time.Duration(0); ts < 2000*time.Second; ts += 100 * time.Millisecond {
		f := r.at(ts)
		if f < 1 || f > 3 {
			t.Fatalf("factor %v at %v outside [1, 1+Peak]", f, ts)
		}
	}
	dead := newSpikeTrain(Spikes{}, 16)
	if got := dead.at(time.Hour); got != 1 {
		t.Errorf("zero-value Spikes factor = %v, want 1", got)
	}
}

// TestChurnStationarity runs the birth-death chain for 20k ticks: the
// active count must hover around ActiveFrac*Clients (the process is
// calibrated to that fixed point), stay within the population bounds,
// and actually move (it is a stochastic process, not a constant).
func TestChurnStationarity(t *testing.T) {
	const clients = 10000
	c := Churn{ActiveFrac: 0.5, SessionMean: 20 * time.Second, Tick: time.Second}
	p := newPopulation(clients, c, 17)
	const n = 20000
	var sum float64
	minA, maxA := int64(clients), int64(0)
	for i := int64(0); i < n; i++ {
		a := p.at(i)
		if a < 0 || a > clients {
			t.Fatalf("active = %d outside [0, %d]", a, clients)
		}
		sum += float64(a)
		if a < minA {
			minA = a
		}
		if a > maxA {
			maxA = a
		}
	}
	mean := sum / n
	if math.Abs(mean-5000)/5000 > 0.05 {
		t.Errorf("mean active = %.1f, want 5000 within 5%%", mean)
	}
	if minA == maxA {
		t.Error("churn process never moved")
	}
	// Zero churn keeps everyone active.
	flat := newPopulation(clients, Churn{}, 18)
	if got := flat.at(1000); got != clients {
		t.Errorf("zero-value Churn active = %d, want %d", got, clients)
	}
}

// TestSourceMeanRate closes the loop on the whole pipeline: with flat
// modulation and no churn, a single full-weight source must deliver
// Clients*OpsPerClient operations per second within 1%, split across
// classes in the configured mix within 2 points.
func TestSourceMeanRate(t *testing.T) {
	m := Model{
		Clients:      10000,
		OpsPerClient: 2,
		Mix:          workload.DefaultMetaMix(),
		Zipf:         ZipfPop{S: 1.1, V: 1, N: 16},
		Tick:         time.Second,
		Seed:         19,
	}
	srcs := NewSources(m, 1, 1, func(int) int { return 0 })
	const ticks = 3000
	var total service.Demand
	for i := int64(0); i < ticks; i++ {
		d := srcs[0].Tick(i)
		total.Getattr += d.Getattr
		total.Lookup += d.Lookup
		total.Readdir += d.Readdir
		total.Create += d.Create
	}
	wantTotal := float64(m.Clients) * m.OpsPerClient * ticks
	if got := float64(total.Total()); math.Abs(got-wantTotal)/wantTotal > 0.01 {
		t.Errorf("total ops = %.0f, want %.0f within 1%%", got, wantTotal)
	}
	mix := m.Mix.Normalized()
	fracs := []struct {
		name string
		got  int64
		want float64
	}{
		{"getattr", total.Getattr, mix.Getattr},
		{"lookup", total.Lookup, mix.Lookup},
		{"readdir", total.Readdir, mix.Readdir},
		{"create", total.Create, mix.Create},
	}
	for _, f := range fracs {
		got := float64(f.got) / float64(total.Total())
		if math.Abs(got-f.want) > 0.02 {
			t.Errorf("%s fraction = %.3f, want %.3f within 0.02", f.name, got, f.want)
		}
	}
}
