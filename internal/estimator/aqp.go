package estimator

import (
	"fmt"
	"math"
	"math/rand"

	"github.com/sampleclean/svc/internal/clean"
	"github.com/sampleclean/svc/internal/stats"
)

// bootstrapIters is the number of resamples for bootstrap intervals
// (Section 5.2.5). 200 keeps intervals stable without dominating query
// time.
const bootstrapIters = 200

// bootstrapSeed keeps bootstrap intervals deterministic for a given
// sample; estimation must be reproducible run to run.
const bootstrapSeed = 0x5fc0ffee

// AQP computes the SVC+AQP direct estimate of q(S′) from the clean sample
// Ŝ′ (paper Section 5.1): apply the query to the sample and scale.
//
// Intervals: CLT for sum/count/avg; bootstrap percentiles for
// median/percentile; sample extremes for min/max (no scaling exists — see
// CorrMinMax for the bounded corrected variant).
func AQP(s *clean.Samples, q Query, confidence float64) (Estimate, error) {
	a, err := newPass(q, nil).aqp(s, nil)
	if err != nil {
		return Estimate{}, err
	}
	return a.estimate(0, confidence)
}

// aqpGroups is SVC+AQP's per-group state after one pass over the clean
// sample Ŝ′.
type aqpGroups struct {
	q     Query
	ratio float64
	mom   []moments // sum/count: trans-table moments
	vals  groupVals // avg, median/percentile, min/max: matching values
	rows  []int     // min/max: sample rows per group
}

// aqp evaluates the query over Ŝ′ whose rows carry group ids gid.
func (p *pass) aqp(s *clean.Samples, gid []int32) (*aqpGroups, error) {
	q := p.q
	switch q.Agg {
	case SumQ, CountQ, AvgQ, MedianQ, PercentileQ, MinQ, MaxQ:
	default:
		return nil, fmt.Errorf("estimator: unsupported aggregate %v", q.Agg)
	}
	x, err := p.bind(s.Fresh, gid)
	if err != nil {
		return nil, err
	}
	a := &aqpGroups{q: q, ratio: s.Ratio}
	switch q.Agg {
	case SumQ, CountQ, AvgQ:
		if err := needKey(s.Fresh); err != nil {
			return nil, err
		}
		if q.Agg == AvgQ {
			a.vals = x.values(AvgQ, p.groups())
		} else {
			a.mom = x.transMoments(q.Agg, 1/s.Ratio, p.groups())
		}
	default:
		a.vals = x.values(q.Agg, p.groups())
		a.rows = x.rowCounts(p.groups())
	}
	return a, nil
}

// estimate finishes group g. Intervals: CLT for sum/count/avg; bootstrap
// percentiles for median/percentile; the sample extreme for min/max.
func (a *aqpGroups) estimate(g int, confidence float64) (Estimate, error) {
	switch a.q.Agg {
	case SumQ, CountQ:
		// The estimate is the sum of the scaled trans values. The hash
		// sampler is a Bernoulli (Poisson) design — every row joins the
		// sample independently with probability m, so the sample size
		// itself is random. The Horvitz–Thompson plug-in variance for
		// that design is (1−m)·Σ trans², which (unlike the fixed-k
		// textbook formula) correctly reports zero variance at m = 1 and
		// nonzero variance even when all trans values are equal. An empty
		// sample is a legitimate outcome (e.g. an outlier index absorbed
		// every sampled row): the estimate is 0.
		m := a.mom[g]
		return cltEstimate(0, m.sum, m.sumsq, m.k, a.ratio, confidence, "svc+aqp"), nil
	case AvgQ:
		vals := a.vals.of(g)
		k := len(vals)
		if k == 0 {
			return Estimate{}, fmt.Errorf("estimator: no matching rows in sample for avg")
		}
		value := stats.Mean(vals)
		half := stats.GammaForConfidence(confidence) * stats.Stdev(vals) / math.Sqrt(float64(k))
		return Estimate{
			Value: value, Lo: value - half, Hi: value + half,
			Confidence: confidence, Method: "svc+aqp", K: k,
		}, nil
	case MedianQ, PercentileQ:
		return aqpBootstrap(a.vals.of(g), a.q, confidence)
	default: // MinQ, MaxQ: no scaling exists
		v, err := a.q.exactOf(a.vals.of(g))
		if err != nil {
			return Estimate{}, err
		}
		return Estimate{Value: v, Lo: v, Hi: v, Confidence: 0, Method: "svc+aqp", K: a.rows[g]}, nil
	}
}

func aqpBootstrap(vals []float64, q Query, confidence float64) (Estimate, error) {
	if len(vals) == 0 {
		return Estimate{}, fmt.Errorf("estimator: no matching rows in sample")
	}
	pct := 0.5
	if q.Agg == PercentileQ {
		pct = q.Pct
	}
	stat := func(xs []float64) float64 { return stats.Quantile(xs, pct) }
	value := stat(vals)
	alpha := (1 - confidence) / 2
	rng := rand.New(rand.NewSource(bootstrapSeed))
	lo, hi, err := stats.Bootstrap(rng, vals, bootstrapIters, stat, alpha, 1-alpha)
	if err != nil {
		return Estimate{}, err
	}
	return Estimate{
		Value: value, Lo: lo, Hi: hi,
		Confidence: confidence, Method: "svc+aqp", K: len(vals),
	}, nil
}
