package estimator

import (
	"fmt"
	"math"
	"math/rand"

	"github.com/sampleclean/svc/internal/clean"
	"github.com/sampleclean/svc/internal/relation"
	"github.com/sampleclean/svc/internal/stats"
)

// Corr computes the SVC+CORR estimate of q(S′) (paper Section 5.1): run
// the query on the full stale view (cheap — it is already materialized),
// estimate the staleness error c from the corresponding samples, and
// correct:
//
//	q(S′) ≈ q(S) + (s·q(Ŝ′) − s·q(Ŝ))
//
// For sum/count the CLT interval comes from the correspondence subtract −̇
// (Definition 4). For avg, whose correction is a difference of means over
// possibly different membership, the interval uses a bootstrap over the
// key-matched pairs. For median/percentile the interval uses the paper's
// Section 5.2.5 bootstrap of the difference. For min/max see CorrMinMax.
func Corr(staleView *relation.Relation, s *clean.Samples, q Query, confidence float64) (Estimate, error) {
	rStale, err := RunExact(staleView, q)
	if err != nil {
		return Estimate{}, err
	}
	return CorrFromBaseline(rStale, s, q, confidence)
}

// CorrFromBaseline is Corr for a caller that already holds the stale
// view's exact answer rStale = RunExact(staleView, q), e.g. to report it
// as the stale baseline: the view is not scanned again.
func CorrFromBaseline(rStale float64, s *clean.Samples, q Query, confidence float64) (Estimate, error) {
	c, err := newPass(q, nil).corr(nil, s, corrGids{})
	if err != nil {
		return Estimate{}, err
	}
	return c.estimate(0, rStale, confidence)
}

// corrGroups is SVC+CORR's per-group state after one pass over each of
// the corresponding samples.
type corrGroups struct {
	q     Query
	ratio float64
	view  groupVals // the stale view's matching values, when it was passed
	mom   []moments // sum/count: correspondence differences
	fresh groupVals // avg, median/percentile, min/max: Ŝ′ matching values
	stale groupVals // avg, median/percentile: Ŝ matching values
	ext   []float64 // min/max: extreme key-matched difference
	pairs []int     // min/max: key-matched pairs
}

// corr evaluates the query over the stale view (nil for a caller that
// holds the stale answer) and the sample pair, whose rows carry group ids
// g.
func (p *pass) corr(staleView *relation.Relation, s *clean.Samples, g corrGids) (*corrGroups, error) {
	q := p.q
	switch q.Agg {
	case SumQ, CountQ, AvgQ, MedianQ, PercentileQ, MinQ, MaxQ:
	default:
		return nil, fmt.Errorf("estimator: unsupported aggregate %v", q.Agg)
	}
	c := &corrGroups{q: q, ratio: s.Ratio}
	if staleView != nil {
		vx, err := p.bind(staleView, g.view)
		if err != nil {
			return nil, err
		}
		c.view = vx.values(q.Agg, p.groups())
	}
	fx, err := p.bind(s.Fresh, g.fresh)
	if err != nil {
		return nil, err
	}
	sx, err := p.bind(s.Stale, g.stale)
	if err != nil {
		return nil, err
	}
	switch q.Agg {
	case SumQ, CountQ:
		if err := needKey(s.Fresh, s.Stale); err != nil {
			return nil, err
		}
		c.mom = diffMoments(fx, sx, q.Agg, 1/s.Ratio, p.groups())
	case MinQ, MaxQ:
		c.fresh = fx.values(q.Agg, p.groups())
		c.ext, c.pairs = extremeDiffs(fx, sx, q.Agg, p.groups())
	default:
		c.fresh, c.stale = fx.values(q.Agg, p.groups()), sx.values(q.Agg, p.groups())
	}
	return c, nil
}

// baseline is group g's exact answer over the stale view.
func (c *corrGroups) baseline(g int) (float64, error) { return c.q.exactOf(c.view.of(g)) }

// estimate finishes group g given its stale answer rStale, with the
// intervals described on Corr.
func (c *corrGroups) estimate(g int, rStale, confidence float64) (Estimate, error) {
	switch c.q.Agg {
	case SumQ, CountQ:
		m := c.mom[g]
		if m.k == 0 {
			// No sampled rows at all: the correction is zero with no
			// evidence; fall back to the stale answer with a degenerate
			// interval.
			return Estimate{Value: rStale, Lo: rStale, Hi: rStale, Confidence: confidence, Method: "svc+corr"}, nil
		}
		// Horvitz–Thompson variance for the Bernoulli-sampled
		// correction: each view key enters the diff table independently
		// with probability m, so Var̂(c) = (1−m)·Σ diff² (diffs already
		// carry the 1/m scale).
		return cltEstimate(rStale, m.sum, m.sumsq, m.k, c.ratio, confidence, "svc+corr"), nil
	case AvgQ:
		return corrAvg(rStale, c.fresh.of(g), c.stale.of(g), confidence)
	case MedianQ, PercentileQ:
		return corrBootstrap(rStale, c.fresh.of(g), c.stale.of(g), c.q, confidence)
	default: // MinQ, MaxQ
		return corrMinMax(rStale, c.fresh.of(g), c.ext[g], c.pairs[g], c.q), nil
	}
}

func corrAvg(rStale float64, freshVals, staleVals []float64, confidence float64) (Estimate, error) {
	if len(freshVals) == 0 {
		return Estimate{}, fmt.Errorf("estimator: no matching rows in clean sample")
	}
	c := stats.Mean(freshVals) - stats.Mean(staleVals)
	value := rStale + c
	// Bootstrap the difference of means, resampling each side
	// independently as in the paper's Section 5.2.5 procedure.
	alpha := (1 - confidence) / 2
	rng := rand.New(rand.NewSource(bootstrapSeed))
	cs := make([]float64, bootstrapIters)
	for i := range cs {
		cs[i] = resampleMean(rng, freshVals) - resampleMean(rng, staleVals)
	}
	lo := stats.Quantile(cs, alpha)
	hi := stats.Quantile(cs, 1-alpha)
	return Estimate{
		Value: value, Lo: rStale + lo, Hi: rStale + hi,
		Confidence: confidence, Method: "svc+corr", K: len(freshVals),
	}, nil
}

func corrBootstrap(rStale float64, freshVals, staleVals []float64, q Query, confidence float64) (Estimate, error) {
	if len(freshVals) == 0 || len(staleVals) == 0 {
		return Estimate{}, fmt.Errorf("estimator: empty sample for bootstrap correction")
	}
	pct := 0.5
	if q.Agg == PercentileQ {
		pct = q.Pct
	}
	stat := func(xs []float64) float64 { return stats.Quantile(xs, pct) }
	c := stat(freshVals) - stat(staleVals)
	value := rStale + c

	// Paper Section 5.2.5 (SVC+CORR variant): repeatedly subsample both
	// samples with replacement, apply AQP to each, record the difference,
	// and take the percentiles of the empirical c distribution.
	alpha := (1 - confidence) / 2
	rng := rand.New(rand.NewSource(bootstrapSeed))
	cs := make([]float64, bootstrapIters)
	buf1 := make([]float64, len(freshVals))
	buf2 := make([]float64, len(staleVals))
	for i := range cs {
		for j := range buf1 {
			buf1[j] = freshVals[rng.Intn(len(freshVals))]
		}
		for j := range buf2 {
			buf2[j] = staleVals[rng.Intn(len(staleVals))]
		}
		cs[i] = stat(buf1) - stat(buf2)
	}
	lo := stats.Quantile(cs, alpha)
	hi := stats.Quantile(cs, 1-alpha)
	return Estimate{
		Value: value, Lo: rStale + lo, Hi: rStale + hi,
		Confidence: confidence, Method: "svc+corr", K: len(freshVals),
	}, nil
}

func resampleMean(rng *rand.Rand, xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for i := 0; i < len(xs); i++ {
		s += xs[rng.Intn(len(xs))]
	}
	return s / float64(len(xs))
}

// CorrMinMax implements the Appendix 12.1.1 correction for min and max:
// compute the row-by-row difference of the aggregation attribute over
// key-matched sample rows that satisfy the predicate on both sides, take
// its extreme as the correction c, and add it to the stale view's
// extreme. The returned TailProb is the Cantelli bound on the probability
// that the unsampled view holds a more extreme element.
func CorrMinMax(staleView *relation.Relation, s *clean.Samples, q Query) (Estimate, error) {
	if q.Agg != MinQ && q.Agg != MaxQ {
		return Estimate{}, fmt.Errorf("estimator: CorrMinMax needs min or max, got %v", q.Agg)
	}
	return Corr(staleView, s, q, 0)
}

// corrMinMax finishes CorrMinMax for one group: freshVals are Ŝ′'s
// matching values, c the extreme of its key-matched differences and
// pairs their number.
func corrMinMax(rStale float64, freshVals []float64, c float64, pairs int, q Query) Estimate {
	value := rStale + c
	// Sampled rows of S′ are hard evidence: any sampled value beats a
	// corrected extreme that it exceeds (covers missing rows, which the
	// key-matched diffs cannot see).
	if sampleExtreme, err := q.exactOf(freshVals); err == nil && !math.IsNaN(sampleExtreme) {
		if q.Agg == MaxQ && sampleExtreme > value {
			value = sampleExtreme
		}
		if q.Agg == MinQ && sampleExtreme < value {
			value = sampleExtreme
		}
	}

	// Cantelli: eps is the gap between the estimate and the sample mean
	// of the attribute (paper: "the difference between max value estimate
	// and the average value").
	tail := 1.0
	if len(freshVals) > 0 {
		variance := stats.Variance(freshVals)
		eps := math.Abs(value - stats.Mean(freshVals))
		tail = stats.CantelliUpper(variance, eps)
	}
	est := Estimate{
		Value: value, Confidence: 0, TailProb: tail,
		Method: "svc+corr", K: pairs,
	}
	if q.Agg == MaxQ {
		est.Lo, est.Hi = math.Inf(-1), value
	} else {
		est.Lo, est.Hi = value, math.Inf(1)
	}
	return est
}

// Advise reports which estimator the Section 5.2.2 break-even analysis
// prefers for a sum/count query, estimated from the corresponding
// samples: SVC+CORR has lower variance while var(stale) ≤ 2·cov(stale,
// fresh) over key-matched transformed rows. It returns "svc+corr" or
// "svc+aqp".
func Advise(s *clean.Samples, q Query) (string, error) {
	if q.Agg != SumQ && q.Agg != CountQ && q.Agg != AvgQ {
		return "svc+aqp", nil
	}
	p := newPass(q, nil)
	fx, err := p.bind(s.Fresh, nil)
	if err != nil {
		return "", err
	}
	sx, err := p.bind(s.Stale, nil)
	if err != nil {
		return "", err
	}
	if err := needKey(s.Fresh, s.Stale); err != nil {
		return "", err
	}
	// term is row i's trans-table value and whether the row is in the
	// trans table: every row for sum/count; for avg only the matching
	// rows with a non-NULL attribute, unscaled.
	scale := 1 / s.Ratio
	term := func(x *input, i int) (float64, bool) {
		if q.Agg != AvgQ {
			return x.trans(q.Agg, i, scale), true
		}
		v := x.rel.Row(i)[x.attr]
		if !x.match[i] || v.IsNull() {
			return 0, false
		}
		return v.AsFloat(), true
	}
	var xs, ys []float64 // stale, fresh on the union of keys (0 when absent)
	paired := make([]bool, s.Fresh.Len())
	keyIdx := s.Stale.Schema().Key()
	var kb relation.KeyBuf
	for j, row := range s.Stale.Rows() {
		sv, ok := term(sx, j)
		if !ok {
			continue
		}
		fv := 0.0
		if i, found := s.Fresh.PosByEncodedBytes(kb.Row(row, keyIdx)); found {
			if v, in := term(fx, i); in {
				fv, paired[i] = v, true
			}
		}
		xs, ys = append(xs, sv), append(ys, fv)
	}
	for i, done := range paired {
		if v, in := term(fx, i); in && !done {
			xs, ys = append(xs, 0), append(ys, v)
		}
	}
	if stats.Variance(xs) <= 2*stats.Covariance(xs, ys) {
		return "svc+corr", nil
	}
	return "svc+aqp", nil
}
