package security

import (
	"context"

	"impress/internal/attack"
	"impress/internal/stats"
)

// Monte-Carlo reliability estimation (the paper's Section III-B
// methodology targets a 0.1 FIT bank-failure rate for probabilistic
// trackers; this estimator measures empirical failure fractions and
// damage distributions over many independent trials).

// SeededTrackerFactory builds a tracker from an explicit seed, letting the
// Monte-Carlo driver decorrelate trials.
type SeededTrackerFactory func(trackerTRH float64, seed uint64) TrackerFactory

// MonteCarloResult summarizes a trial ensemble.
type MonteCarloResult struct {
	Trials    int
	Failures  int     // trials whose peak damage reached the design TRH
	MaxDamage float64 // worst peak damage across trials
	// Damages holds each trial's peak damage for distribution analysis.
	Damages []float64
}

// FailureFraction returns Failures/Trials.
func (m MonteCarloResult) FailureFraction() float64 {
	if m.Trials == 0 {
		return 0
	}
	return float64(m.Failures) / float64(m.Trials)
}

// DamagePercentile returns the p-th percentile of peak damage.
func (m MonteCarloResult) DamagePercentile(p float64) float64 {
	return stats.Percentile(m.Damages, p)
}

// MonteCarlo runs trials independent harness runs with decorrelated
// tracker seeds and a fresh pattern per trial, recording the peak-damage
// distribution. newPattern must return a fresh, stateless-from-start
// pattern each call. MonteCarlo panics on an invalid configuration.
func MonteCarlo(cfg Config, newPattern func() attack.Pattern,
	newTracker SeededTrackerFactory, trials int, baseSeed uint64) MonteCarloResult {
	if trials <= 0 {
		panic("security: need at least one trial")
	}
	res := MonteCarloResult{Trials: trials}
	seeds := stats.NewRand(baseSeed)
	for i := 0; i < trials; i++ {
		trialCfg := cfg
		trialCfg.Tracker = newTracker(cfg.Design.TrackerTRH(cfg.DesignTRH), seeds.Uint64())
		r, err := RunContext(context.Background(), trialCfg, newPattern())
		if err != nil {
			panic(err.Error())
		}
		res.Damages = append(res.Damages, r.MaxDamage)
		if r.MaxDamage > res.MaxDamage {
			res.MaxDamage = r.MaxDamage
		}
		if r.MaxDamage >= cfg.DesignTRH {
			res.Failures++
		}
	}
	return res
}
